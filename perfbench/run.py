"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {ingest,query,serve} --seed N \
        --seconds S --trace {0,1} [--out FILE] [--spans FILE]

The program under test is imported from ``src/`` next to this
directory; nothing is installed.  With ``--trace 0`` the last line of
standard output carries every end-to-end metric that ``BENCHMARK.json``
names; with ``--trace 1`` the workload's timed phase runs twice on the
same service, untraced and then traced, and the last line carries every
per-layer metric.  The line before it is a ``{"detail": ...}`` record
with provenance, sample counts, the workload's input properties and the
unbounded figures, latencies among them (see ``LAYERS.md``).  A divergence from
the oracle prints ``"correct": false`` and exits 3; a missing program or
bad arguments exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _declared(kind: str):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[kind]}


def _source_revision() -> dict:
    """Git revision when available, plus a hash of the program's source."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_revision": rev, "source_sha256": digest.hexdigest()}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--spans", help="traced run: write spans (JSON lines) here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail(f"--seconds must be positive, got {args.seconds}")
    return args


def _counters(svc) -> dict:
    stats = svc.service_stats()
    counters = dict(stats["metrics"]["counters"])
    counters["page_reads"] = sum(s["io"]["reads"] for s in stats["shard_state"])
    counters["page_writes"] = sum(s["io"]["writes"] for s in stats["shard_state"])
    counters["pages_in_use"] = sum(s["pages_in_use"] for s in stats["shard_state"])
    pool = svc.pool
    counters["pool_respawns"] = pool.respawns if pool is not None else 0
    return counters


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Pool workers are joined by the service's ``close``; any still alive
    is killed here.  Multiprocessing's resource tracker (started by the
    first queue or shared-memory segment) would otherwise outlive this
    process, so it is stopped and waited for too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def _trace_context(before: dict, after: dict, outcome, base) -> dict:
    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    per_op = outcome.cpu_s / max(1, outcome.ops)
    base_per_op = base.cpu_s / max(1, base.ops)
    return {
        "writes": outcome.writes,
        "shed": outcome.extra.get("shed", 0),
        "cache_hits": delta("query_cache_hits"),
        "cache_misses": delta("query_cache_misses"),
        "cache_invalidations": delta("query_cache_invalidations"),
        "cache_evictions": delta("query_cache_evictions"),
        "cache_stale_puts": delta("query_cache_stale_puts"),
        "pool_tasks": delta("parallel_tasks"),
        "pool_respawns": delta("pool_respawns"),
        "page_reads": delta("page_reads"),
        "page_writes": delta("page_writes"),
        "pages_in_use": after["pages_in_use"],
        "late_p99_ms": outcome.extra.get("loadgen_late_p99_ms", 0.0),
        "overhead_frac": per_op / base_per_op - 1.0 if base_per_op else 0.0,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    kind = "per_layer" if args.trace else "end_to_end"
    declared = _declared(kind)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import workloads as w

    if args.workload not in w.WORKLOAD_CLASSES:
        _fail(f"unknown workload {args.workload!r}; pick from {list(w.WORKLOAD_CLASSES)}")
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    phases = 2 if args.trace else 1
    inputs = w.make_inputs(args.workload, args.seed, args.seconds, phases)
    wl = w.WORKLOAD_CLASSES[args.workload](inputs, args.seconds, workdir)
    tracer = None
    try:
        if args.trace:
            import tracing

            # Set-up is traced too (it is the only batch-load path on
            # query and serve); the first timed phase is not.
            tracer = tracing.Tracer()
            tracer.install(wl.service_class)
            wl.setup(1)
            tracer.uninstall()
            base = wl.run_phase(0)
            before = _counters(wl.svc)
            tracer.install(wl.service_class)
            if args.workload == "serve":
                wl.on_submit = tracer.on_submit
            tracer.mark("phase_start")
            outcome = wl.run_phase(1)
            tracer.mark("phase_end")
            ctx = _trace_context(before, _counters(wl.svc), outcome, base)
        else:
            wl.setup(w.SETUP_REPEATS)
            outcome = wl.run_phase(0)
        wl.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
        try:
            if wl.svc is not None:
                wl.svc.close()
        finally:
            _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    problems = wl.outcome.problems + outcome.problems
    if args.trace:
        problems = base.problems + problems
    lat = outcome.latencies_s
    if args.trace:
        values = tracing.layer_metrics(tracer, ctx)
        if args.spans:
            tracer.dump(args.spans)
    else:
        values = {
            "setup_s": statistics.median(wl.outcome.setup_samples),
            "cpu_ms_per_op": 1e3 * outcome.cpu_s / max(1, outcome.ops),
            "peak_rss_mb": wl.outcome.peak_rss_mb,
        }
    outcome.extra["ops_per_s"] = outcome.ops / outcome.phase_s
    outcome.extra["setup_wall_s"] = statistics.median(wl.outcome.setup_wall_samples)
    if lat:
        outcome.extra["p50_ms"] = 1e3 * w.percentile(lat, 50)
        outcome.extra[f"p{w.TAIL_PERCENTILE}_ms"] = 1e3 * w.percentile(lat, w.TAIL_PERCENTILE)
    if set(values) != set(declared):
        _fail(
            "metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"extra {sorted(set(values) - set(declared))}"
        )
    beyond = len(lat) * (100 - w.TAIL_PERCENTILE) / 100
    if beyond < 10:
        print(
            f"perfbench: only {len(lat)} samples; p{w.TAIL_PERCENTILE} has "
            f"{beyond:.1f} beyond it (want >= 10)", file=sys.stderr,
        )
    import numpy

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {
            "setup": len(wl.outcome.setup_samples),
            "latency": len(lat),
            "tail_percentile": w.TAIL_PERCENTILE,
        },
        "extra": {**wl.outcome.extra, **outcome.extra},
        "properties": outcome.properties,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "provenance": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            **_source_revision(),
            **wl.outcome.provenance,
            "seed": args.seed,
        },
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": declared[name]} for name in declared
        },
    }
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"detail": detail, "result": result}, handle, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
