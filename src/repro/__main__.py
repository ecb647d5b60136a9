"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro figures            # Figures 6-9 (scaled regime)
    python -m repro figures --sizes 500 1000 --ticks 20
    python -m repro csweep             # the eq. (2) c tradeoff
    python -m repro mor1               # Theorem 2 space/query behaviour
    python -m repro list               # registered index methods

The figure tables match what ``pytest benchmarks/ --benchmark-only``
writes to ``benchmarks/results/``; the CLI is for interactive poking.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import Table, default_methods, run_sweep
from repro.indexes import INDEX_REGISTRY
from repro.workloads import LARGE_QUERIES, SMALL_QUERIES


def _cmd_figures(args: argparse.Namespace) -> int:
    import os

    methods = default_methods(forest_cs=tuple(args.c))

    def emit(table: Table, title: str, stem: str) -> None:
        print(table.render(title))
        print()
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            table.save_csv(os.path.join(args.csv, f"{stem}.csv"))

    for qclass in (LARGE_QUERIES, SMALL_QUERIES):
        sweep = run_sweep(
            methods,
            sizes=args.sizes,
            query_class=qclass,
            ticks=args.ticks,
            update_rate=args.update_rate,
            seed=args.seed,
        )
        if qclass is LARGE_QUERIES:
            emit(sweep.metric_table("avg_query_io"),
                 "Figure 6: query I/O (10% queries)", "fig6")
            emit(sweep.metric_table("space_pages"),
                 "Figure 8: space (pages)", "fig8")
            emit(sweep.metric_table("avg_update_io"),
                 "Figure 9: update I/O", "fig9")
        else:
            emit(sweep.metric_table("avg_query_io"),
                 "Figure 7: query I/O (1% queries)", "fig7")
    return 0


def _cmd_csweep(args: argparse.Namespace) -> int:
    import random

    from repro.indexes import HoughYForestIndex
    from repro.workloads import WorkloadGenerator

    gen = WorkloadGenerator(seed=args.seed)
    objects = gen.initial_population(args.n)
    queries = [gen.query(SMALL_QUERIES, now=40.0) for _ in range(100)]
    table = Table(headers=["c", "fetched", "exact", "waste", "pages"])
    for c in args.c:
        forest = HoughYForestIndex(gen.model, c=c)
        for obj in objects:
            forest.insert(obj)
        fetched = exact = 0
        for query in queries:
            f, e = forest.approximation_overhead(query)
            fetched += f
            exact += e
        table.rows.append([
            c, fetched, exact,
            round((fetched - exact) / max(exact, 1), 2),
            forest.pages_in_use,
        ])
    print(table.render("Equation (2) tradeoff: observation indexes c"))
    return 0


def _cmd_mor1(args: argparse.Namespace) -> int:
    import random

    from repro.core import LinearMotion1D, MOR1Query, MobileObject1D
    from repro.kinetic import MOR1Index

    rng = random.Random(args.seed)
    table = Table(headers=["N", "crossings", "pages", "avg_query_io"])
    for n in args.sizes:
        objects = [
            MobileObject1D(
                oid,
                LinearMotion1D(
                    rng.uniform(0, 1000), rng.uniform(0.8, 1.2), 0.0
                ),
            )
            for oid in range(n)
        ]
        index = MOR1Index(objects, t_start=0.0, window=40.0, page_capacity=16)
        total = 0
        for _ in range(40):
            y1 = rng.uniform(0, 990)
            index.disk.clear_buffer()
            before = index.disk.stats.snapshot()
            index.query(MOR1Query(y1, y1 + 10, rng.uniform(0, 40)))
            total += (index.disk.stats.snapshot() - before).reads
        table.rows.append(
            [n, index.crossing_count, index.pages_in_use, round(total / 40, 1)]
        )
    print(table.render("Theorem 2: MOR1 space and query scaling"))
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    import os

    results_dir = args.results
    if not os.path.isdir(results_dir):
        print(f"no results directory at {results_dir}; "
              "run `pytest benchmarks/ --benchmark-only` first")
        return 1
    names = sorted(
        name for name in os.listdir(results_dir) if name.endswith(".txt")
    )
    sections = []
    for name in names:
        with open(os.path.join(results_dir, name)) as handle:
            sections.append(handle.read().rstrip())
    report = "\n\n".join(sections) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {len(names)} result tables to {args.output}")
    else:
        print(report)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.service import ServeBenchConfig, run_serve_bench

    if args.parallel:
        return _cmd_parallel_bench(args)
    if args.serve:
        return _cmd_serve_drill(args)
    if args.soak:
        return _cmd_soak_bench(args)
    if args.subscriptions:
        return _cmd_subscription_bench(args)
    if args.batch:
        return _cmd_batch_bench(args)
    if args.update_bench:
        return _cmd_update_bench(args)
    if args.rebalance:
        return _cmd_rebalance_bench(args)
    config = ServeBenchConfig(
        n=args.n,
        shards=args.shards,
        batches=args.batches,
        updates_per_batch=args.updates,
        queries_per_batch=args.queries,
        proximity_every=args.proximity_every,
        method=args.method,
        router=args.router,
        workers=args.workers,
        seed=args.seed,
        replication=args.replication,
        faults=args.faults,
        verify=args.verify,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
    )
    try:
        report = run_serve_bench(config)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if report.verification is not None and (
        report.verification["mismatches"] > 0
        or report.verification["lost_objects"] > 0
    ):
        print(
            "serve-bench: verification FAILED (lost updates or "
            f"mismatching answers): {report.verification}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_batch_bench(args: argparse.Namespace) -> int:
    """``serve-bench --batch``: scalar vs vectorized query throughput,
    with byte-level differential verification of every answer pair."""
    from repro.service.batch_bench import BatchBenchConfig, run_batch_bench

    config = BatchBenchConfig(
        n=args.n,
        queries=args.queries,
        shards=args.shards,
        batch_size=args.batch_size,
        method=args.method,
        router=args.router,
        seed=args.seed,
        json_path=args.batch_json,
    )
    try:
        report = run_batch_bench(config)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.batch_json:
        print(f"wrote {args.batch_json}")
    if not report.ok:
        print(
            "serve-bench: vector results DIVERGED from the scalar path "
            f"at query indices {report.divergences[:10]}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_update_bench(args: argparse.Namespace) -> int:
    """``serve-bench --update-bench``: scalar vs batched write-path
    throughput, each leg's per-op outcomes, catalog and probe answers
    checked against a plain MotionDatabase reference (exit 3 on
    divergence)."""
    from repro.service.update_bench import (
        UpdateBenchConfig,
        run_update_bench,
    )

    config = UpdateBenchConfig(
        n=args.n,
        shards=args.shards,
        method=args.method,
        router=args.router,
        seed=args.seed,
        json_path=args.update_json,
    )
    try:
        report = run_update_bench(config)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.update_json:
        print(f"wrote {args.update_json}")
    if not report.ok:
        print(
            "serve-bench: the service write path DIVERGED from the "
            f"reference database: {report.divergences[:10]}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_rebalance_bench(args: argparse.Namespace) -> int:
    """``serve-bench --rebalance``: live repartitioning under load —
    skew before/after, migration throughput, optional differential
    verification (exit 3 on divergence)."""
    from repro.service.rebalance_bench import (
        RebalanceBenchConfig,
        run_rebalance_bench,
    )

    config = RebalanceBenchConfig(
        n=args.n,
        shards=args.shards,
        updates=args.updates,
        replication=args.replication,
        method=args.method,
        seed=args.seed,
        verify=args.verify,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        json_path=args.rebalance_json,
    )
    try:
        report = run_rebalance_bench(config)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.rebalance_json:
        print(f"wrote {args.rebalance_json}")
    if not report.ok:
        print(
            "serve-bench: rebalance run DIVERGED from the oracle: "
            f"{report.verification}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_parallel_bench(args: argparse.Namespace) -> int:
    """``serve-bench --parallel``: the worker-pool scaling curve with
    differential verification plus the frontend overload drill (exit 3
    on any divergence)."""
    from repro.service.parallel_bench import (
        ParallelBenchConfig,
        run_parallel_bench,
    )

    try:
        config = ParallelBenchConfig(
            n=args.n,
            queries=args.queries,
            shards=args.shards,
            batch_size=args.batch_size,
            workers_list=(
                tuple(args.pool_workers)
                if args.pool_workers
                else (0, 1, 2, 4)
            ),
            method=args.method,
            router=args.router,
            seed=args.seed,
            serve_clients=args.clients,
            serve_requests=args.requests,
            serve_queue_depth=args.queue_depth,
            json_path=args.parallel_json,
        )
        report = run_parallel_bench(config)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.parallel_json:
        print(f"wrote {args.parallel_json}")
    if not report.ok:
        print(
            "serve-bench: pooled answers DIVERGED from the in-process "
            f"path ({report.divergences} mismatches)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_serve_drill(args: argparse.Namespace) -> int:
    """``serve-bench --serve``: concurrent async clients against the
    admission-controlled frontend — queued-arrival latency, bounded
    p99, explicit shed accounting."""
    import json as _json

    from repro.service.parallel_bench import (
        ParallelBenchConfig,
        build_queries,
        run_overload_drill,
    )
    import random as _random

    try:
        workers = max(args.pool_workers) if args.pool_workers else 0
        config = ParallelBenchConfig(
            n=args.n,
            queries=args.queries,
            shards=args.shards,
            batch_size=args.batch_size,
            workers_list=(0, workers) if workers else (0,),
            method=args.method,
            router=args.router,
            seed=args.seed,
            serve_clients=args.clients,
            serve_requests=args.requests,
            serve_queue_depth=args.queue_depth,
        )
        stream = build_queries(_random.Random(config.seed + 1), config)
        drill = run_overload_drill(config, stream)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(
        f"serve-drill: {drill['clients']} clients offered "
        f"{drill['offered']} requests over {config.n} objects "
        f"({drill['workers']} pool workers, queue depth "
        f"{drill['queue_depth']})"
    )
    print(
        f"  accepted {drill['accepted']}, shed {drill['shed']}, "
        f"completed {drill['completed']} "
        f"(max observed depth {drill['max_observed_depth']})"
    )
    print(
        f"  accepted latency: p50 {drill['p50_ms']:.1f}ms / "
        f"p99 {drill['p99_ms']:.1f}ms"
    )
    if args.parallel_json:
        with open(args.parallel_json, "w") as handle:
            _json.dump(
                {"name": "serve-drill", "drill": drill},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote {args.parallel_json}")
    return 0


def _cmd_soak_bench(args: argparse.Namespace) -> int:
    """``serve-bench --soak``: the full-stack concurrent soak under
    differential oracles (exit 3 on any divergence)."""
    from repro.soak import SoakConfig, run_soak

    try:
        config = SoakConfig(
            scenario=args.scenario,
            n=args.n,
            ticks=args.ticks,
            updates_per_tick=args.updates if args.updates else None,
            arrivals_per_tick=args.arrivals,
            departures_per_tick=args.departures,
            shards=args.shards,
            replication=args.replication,
            method=args.method,
            router=args.router,
            threads=args.threads,
            batch_queries_per_tick=args.queries,
            batch_size=args.batch_size,
            subscriptions=args.subs,
            horizon=args.horizon,
            crashes=args.crashes,
            restarts=args.restarts,
            rebalances=args.rebalances,
            check_every=args.check_every,
            wal_dir=args.wal_dir,
            fsync=args.fsync,
            seed=args.seed,
            write_batch_size=args.write_batch,
            workers=max(args.pool_workers) if args.pool_workers else 0,
        )
        report = run_soak(config)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.soak_json:
        report.write_json(args.soak_json)
        print(f"wrote {args.soak_json}")
    if not report.ok:
        print(
            "serve-bench: soak DIVERGED from the differential oracles: "
            f"{report.divergence_labels[:10]}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_subscription_bench(args: argparse.Namespace) -> int:
    """``serve-bench --subscriptions``: standing queries, incremental
    maintenance vs naive per-tick re-evaluation, differential-checked."""
    from repro.service import (
        SubscriptionBenchConfig,
        run_subscription_bench,
    )

    config = SubscriptionBenchConfig(
        n=args.n,
        shards=args.shards,
        subscriptions=args.subs,
        proximity_subs=min(2, args.subs),
        ticks=args.ticks,
        updates_per_tick=args.updates,
        horizon=args.horizon,
        method=args.method,
        router=args.router,
        seed=args.seed,
        replication=args.replication,
        faults=args.faults,
    )
    try:
        report = run_subscription_bench(config)
    except ValueError as error:
        print(f"serve-bench: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if not report.ok:
        print(
            "serve-bench: subscription results DIVERGED from the naive "
            f"re-evaluation oracle: {report.mismatches[:10]}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("registered 1-D index methods:")
    for name in sorted(INDEX_REGISTRY):
        print(f"  {name:20s} {INDEX_REGISTRY[name].__doc__.splitlines()[0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'On Indexing Mobile Objects' (PODS 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate Figures 6-9")
    figures.add_argument("--sizes", type=int, nargs="+",
                         default=[1000, 2000, 4000])
    figures.add_argument("--ticks", type=int, default=40)
    figures.add_argument("--update-rate", type=float, default=0.002)
    figures.add_argument("--seed", type=int, default=42)
    figures.add_argument("-c", type=int, nargs="+", default=[4, 6, 8],
                         help="forest observation-index counts")
    figures.add_argument("--csv", metavar="DIR", default=None,
                         help="also write each table as CSV into DIR")
    figures.set_defaults(func=_cmd_figures)

    csweep = sub.add_parser("csweep", help="equation (2) c tradeoff")
    csweep.add_argument("-n", type=int, default=3000)
    csweep.add_argument("-c", type=int, nargs="+", default=[2, 4, 8, 16])
    csweep.add_argument("--seed", type=int, default=7)
    csweep.set_defaults(func=_cmd_csweep)

    mor1 = sub.add_parser("mor1", help="Theorem 2 scaling")
    mor1.add_argument("--sizes", type=int, nargs="+",
                      default=[250, 1000, 4000])
    mor1.add_argument("--seed", type=int, default=29)
    mor1.set_defaults(func=_cmd_mor1)

    serve = sub.add_parser(
        "serve-bench",
        help="drive the sharded service and report per-shard metrics",
    )
    serve.add_argument("--n", type=int, default=2000,
                       help="initial object population")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--batches", type=int, default=10)
    serve.add_argument("--updates", type=int, default=100,
                       help="motion reports per batch")
    serve.add_argument("--queries", type=int, default=50,
                       help="queries per batch")
    serve.add_argument("--proximity-every", type=int, default=5,
                       help="run a proximity join every Nth batch "
                            "(0 disables)")
    serve.add_argument("--method", default="forest",
                       choices=["forest", "kdtree"])
    serve.add_argument("--router", default="hash",
                       choices=["hash", "velocity"])
    serve.add_argument("--workers", type=int, default=0,
                       help="thread-pool width (0 = one per shard)")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--replication", type=int, default=1,
                       help="copies per object (> 1 enables the "
                            "fault-tolerant service)")
    serve.add_argument("--faults", action="store_true",
                       help="inject seeded faults: transient errors, "
                            "latency spikes, one victim-shard crash")
    serve.add_argument("--verify", action="store_true",
                       help="end with a differential check against a "
                            "faultless single database (exit 3 on "
                            "lost updates)")
    serve.add_argument("--wal-dir", metavar="PATH", default=None,
                       help="write durable per-shard WALs + checkpoints "
                            "under PATH (enables the fault-tolerant "
                            "service; combine with --faults --verify "
                            "to chaos-test the on-disk backend)")
    serve.add_argument("--fsync", default="always",
                       metavar="{always,batch[:N],never}",
                       help="durable-log fsync policy (with --wal-dir); "
                            "default: always")
    serve.add_argument("--batch", action="store_true",
                       help="run the batch-query bench: scalar vs "
                            "vectorized kernel throughput on the same "
                            "query stream, every answer pair compared "
                            "(exit 3 on divergence); --n/--queries "
                            "size the workload")
    serve.add_argument("--batch-size", type=int, default=250,
                       help="queries per query_batch call "
                            "(--batch mode)")
    serve.add_argument("--batch-json", metavar="PATH", default=None,
                       help="dump the machine-readable batch report "
                            "to PATH (--batch mode)")
    serve.add_argument("--update-bench", action="store_true",
                       help="run the batched write-path bench: scalar "
                            "register/report/deregister calls vs "
                            "apply_batch on the same op stream; both "
                            "legs' outcomes, catalogs and probe answers "
                            "checked against a plain MotionDatabase "
                            "(exit 3 on divergence); --n sizes the "
                            "population")
    serve.add_argument("--update-json", metavar="PATH", default=None,
                       help="dump the machine-readable update report "
                            "to PATH (--update-bench mode)")
    serve.add_argument("--subscriptions", action="store_true",
                       help="run the continuous-subscription bench: "
                            "incremental maintenance vs naive per-tick "
                            "re-evaluation, differential-checked every "
                            "tick (exit 3 on divergence); --updates "
                            "becomes reports per tick")
    serve.add_argument("--subs", type=int, default=40,
                       help="standing subscriptions "
                            "(--subscriptions mode)")
    serve.add_argument("--ticks", type=int, default=15,
                       help="clock advances (--subscriptions mode)")
    serve.add_argument("--horizon", type=float, default=8.0,
                       help="sliding-window length for 'within' "
                            "subscriptions (--subscriptions mode)")
    serve.add_argument("--rebalance", action="store_true",
                       help="run the live-repartitioning bench: a "
                            "skewed velocity-routed population is "
                            "re-cut and migrated by the rebalance "
                            "controller; reports skew before/after "
                            "and migration throughput; combine with "
                            "--verify for the differential check "
                            "(exit 3 on divergence)")
    serve.add_argument("--rebalance-json", metavar="PATH", default=None,
                       help="dump the machine-readable rebalance "
                            "report to PATH (--rebalance mode)")
    serve.add_argument("--soak", action="store_true",
                       help="run the full-stack soak: scenario-shaped "
                            "writes + batch queries + live subscriptions "
                            "+ injected crashes/WAL restarts, every "
                            "answer differential-checked (exit 3 on "
                            "divergence); --n/--ticks/--updates/"
                            "--queries/--subs size the workload")
    serve.add_argument("--scenario", default="uniform",
                       choices=["uniform", "city", "grid", "convoy",
                                "adversarial"],
                       help="workload shape (--soak mode)")
    serve.add_argument("--threads", type=int, default=1,
                       help="writer threads; 1 = deterministic trace "
                            "(--soak mode)")
    serve.add_argument("--crashes", type=int, default=0,
                       help="scheduled mid-storm shard kills, each "
                            "recovered by WAL replay (--soak mode)")
    serve.add_argument("--restarts", type=int, default=0,
                       help="graceful shutdown + restore_from_disk "
                            "cycles; needs --wal-dir (--soak mode)")
    serve.add_argument("--rebalances", type=int, default=0,
                       help="live repartitioning passes at scheduled "
                            "quiescent ticks; needs --router velocity "
                            "(--soak mode)")
    serve.add_argument("--check-every", type=int, default=2,
                       help="differential-oracle round every N ticks "
                            "(--soak mode)")
    serve.add_argument("--arrivals", type=int, default=0,
                       help="open-system arrivals per tick (--soak mode)")
    serve.add_argument("--departures", type=int, default=0,
                       help="open-system departures per tick "
                            "(--soak mode)")
    serve.add_argument("--soak-json", metavar="PATH", default=None,
                       help="dump the machine-readable soak report to "
                            "PATH (--soak mode)")
    serve.add_argument("--write-batch", type=int, default=1,
                       help="write ops per apply_batch call; 1 = "
                            "scalar writes (--soak mode)")
    serve.add_argument("--parallel", action="store_true",
                       help="worker-pool scaling curve with "
                            "differential verification plus the "
                            "frontend overload drill")
    serve.add_argument("--serve", action="store_true",
                       help="concurrent async clients against the "
                            "admission-controlled frontend (queued-"
                            "arrival latency, shed accounting)")
    serve.add_argument("--pool-workers", type=int, nargs="+",
                       default=None,
                       help="worker-process pool widths to sweep "
                            "(--parallel; 0 = in-process oracle leg; "
                            "default 0 1 2 4). --serve and --soak use "
                            "the max (their default is 0, in-process)")
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent async clients (--serve / the "
                            "--parallel drill)")
    serve.add_argument("--requests", type=int, default=40,
                       help="requests per client (--serve)")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="frontend admission-queue bound (--serve)")
    serve.add_argument("--parallel-json", metavar="PATH", default=None,
                       help="dump the parallel/serve report as JSON")
    serve.set_defaults(func=_cmd_serve_bench)

    listing = sub.add_parser("list", help="list registered index methods")
    listing.set_defaults(func=_cmd_list)

    collect = sub.add_parser(
        "collect-results",
        help="concatenate benchmarks/results/*.txt into one report",
    )
    collect.add_argument("--results", default="benchmarks/results")
    collect.add_argument("--output", "-o", default=None)
    collect.set_defaults(func=_cmd_collect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
