"""The ``serve-bench --update-bench`` workload: scalar vs batched writes.

The twin of :mod:`repro.service.batch_bench` for the *write* path.
Two identically-populated services replay the same seeded update storm
— the paper's §3.2 discipline, every object reporting once per round,
plus a little register/deregister churn and a sprinkle of
deliberately-invalid ops — two ways:

* the **scalar leg**: one service call per write (`register` /
  `report` / `deregister`), each a one-op batch paying its own span,
  lock round, per-shard routing, root-to-leaf index update and
  listener fire;
* the **batch leg**: the stream chunked into batches of
  ``batch_size`` and pushed through
  :meth:`~repro.service.service.ShardedMotionService.apply_batch` —
  one lock round and one grouped per-shard apply per batch, with the
  §3.5 forest swapping incremental updates for an STR-style bulk
  rebuild once a sub-batch crosses its rebuild threshold.

Both legs run the service's one write routine, so they are timed
against each other but checked against an independent **reference**:
a plain :class:`~repro.engine.MotionDatabase`, populated the same way
and fed the stream through its own scalar writes.  Verification is
threefold, so the speedup number can never hide a wrong answer (CLI
exit 3 on any divergence):

1. **outcome parity** — each leg's per-op outcomes match the
   reference's slot-for-slot in acceptance and exception type, and
   the two legs' messages match each other;
2. **catalog equality** — each leg ends with the reference's
   ``motion_snapshot()`` map;
3. **probe queries** — a seeded mix of range / snapshot / kNN probes
   answers on each leg as on the reference, and the reference answers
   as a brute-force scan of its catalog.

The report renders human-readable and dumps machine-readable JSON
(``BENCH_update.json``) for trajectory tracking across PRs.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import MobileObject1D, MORQuery1D, brute_force_1d
from repro.engine import MotionDatabase
from repro.errors import InvalidMotionError, ObjectNotFoundError
from repro.service.bench import (
    DEFAULT_V_MAX,
    DEFAULT_V_MIN,
    DEFAULT_Y_MAX,
    ServeBenchConfig,
    build_service,
)
from repro.service.service import ShardedMotionService
from repro.vector.ops import (
    DeregisterOp,
    RegisterOp,
    ReportOp,
    WriteOp,
)


@dataclass
class UpdateBenchConfig:
    """Parameters of one ``serve-bench --update-bench`` run (seeded)."""

    n: int = 10000
    #: Update-storm rounds: each round reports (nearly) every live
    #: object once, the §3.2 "every object updates once per period".
    rounds: int = 2
    shards: int = 4
    batch_size: int = 10000
    method: str = "forest"
    router: str = "hash"
    seed: int = 42
    #: Fraction of each round's reports replaced by deregister + fresh
    #: register churn (arrivals/departures).
    churn_fraction: float = 0.02
    #: Fraction of deliberately-invalid ops (duplicate registers,
    #: reports/deregisters of unknown oids) mixed in to exercise
    #: per-op containment parity.
    error_fraction: float = 0.005
    #: Post-storm differential probe queries per service.
    probe_queries: int = 200
    #: Where to dump the machine-readable report; ``None`` skips.
    json_path: Optional[str] = None


@dataclass
class UpdateBenchReport:
    """Scalar-vs-batched write timings plus differential verdicts."""

    config: UpdateBenchConfig
    scalar_s: float
    vector_s: float
    op_count: int
    op_counts: Dict[str, int]
    divergences: List[str] = field(default_factory=list)
    probes: int = 0

    @property
    def speedup(self) -> float:
        return self.scalar_s / self.vector_s if self.vector_s > 0 else 0.0

    @property
    def scalar_ups(self) -> float:
        return self.op_count / self.scalar_s if self.scalar_s > 0 else 0.0

    @property
    def vector_ups(self) -> float:
        return self.op_count / self.vector_s if self.vector_s > 0 else 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": "update",
            "config": asdict(self.config),
            "updates": self.op_count,
            "op_counts": dict(self.op_counts),
            "scalar": {
                "elapsed_s": round(self.scalar_s, 6),
                "throughput_ups": round(self.scalar_ups, 1),
            },
            "vector": {
                "elapsed_s": round(self.vector_s, 6),
                "throughput_ups": round(self.vector_ups, 1),
            },
            "speedup": round(self.speedup, 2),
            "divergences": len(self.divergences),
            "probes": self.probes,
        }

    def render(self) -> str:
        c = self.config
        mix = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.op_counts.items())
        )
        lines = [
            (
                f"update-bench: {self.op_count} writes ({mix}) over "
                f"{c.n} objects, {c.rounds} rounds, {c.shards} shards "
                f"({c.router} router), batch size {c.batch_size}"
            ),
            (
                f"scalar: {self.scalar_s:.3f}s — "
                f"{self.scalar_ups:,.0f} updates/s"
            ),
            (
                f"batched: {self.vector_s:.3f}s — "
                f"{self.vector_ups:,.0f} updates/s"
            ),
            f"speedup: {self.speedup:.1f}x",
        ]
        if self.ok:
            lines.append(
                f"differential verification: OK — both legs' outcomes, "
                f"catalogs and {self.probes} probe answers match a plain "
                f"MotionDatabase reference and a brute-force scan"
            )
        else:
            sample = self.divergences[:10]
            lines.append(
                f"differential verification: MISMATCH — "
                f"{len(self.divergences)} divergences (first: {sample})"
            )
        return "\n".join(lines)

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def build_update_stream(
    rng: random.Random, config: UpdateBenchConfig
) -> List[WriteOp]:
    """The seeded write storm: per-round reports + churn + bad ops.

    Within one round every live object appears at most once, so the
    engine's run splitting sees maximal same-kind runs; churn swaps a
    departing oid for a fresh one, and invalid ops (which touch no
    state on either leg) are sprinkled in at ``error_fraction``.
    """
    population = list(range(config.n))
    next_oid = config.n
    stream: List[WriteOp] = []
    for round_index in range(config.rounds):
        now = float(round_index + 1)
        order = list(population)
        rng.shuffle(order)
        for oid in order:
            draw = rng.random()
            if draw < config.error_fraction:
                bad = rng.randrange(3)
                if bad == 0:  # duplicate register of a live object
                    stream.append(RegisterOp(
                        oid, rng.uniform(0.0, DEFAULT_Y_MAX),
                        rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX), now,
                    ))
                elif bad == 1:  # report of a never-registered oid
                    stream.append(ReportOp(
                        1_000_000_000 + len(stream),
                        rng.uniform(0.0, DEFAULT_Y_MAX),
                        rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX), now,
                    ))
                else:  # deregister of a never-registered oid
                    stream.append(
                        DeregisterOp(1_000_000_000 + len(stream))
                    )
            if draw < config.churn_fraction:
                stream.append(DeregisterOp(oid))
                fresh = next_oid
                next_oid += 1
                stream.append(RegisterOp(
                    fresh, rng.uniform(0.0, DEFAULT_Y_MAX),
                    (1 if rng.random() < 0.5 else -1)
                    * rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX),
                    now,
                ))
                population[population.index(oid)] = fresh
            else:
                stream.append(ReportOp(
                    oid, rng.uniform(0.0, DEFAULT_Y_MAX),
                    (1 if rng.random() < 0.5 else -1)
                    * rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX),
                    now,
                ))
    return stream


def _populate(target, config: UpdateBenchConfig):
    """Register the seeded population into ``target`` (identically
    for every leg and for the reference)."""
    rng = random.Random(config.seed * 31 + 7)
    for oid in range(config.n):
        speed = rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX)
        direction = 1 if rng.random() < 0.5 else -1
        target.register(
            oid, rng.uniform(0.0, DEFAULT_Y_MAX), direction * speed, 0.0
        )
    return target


def _service(config: UpdateBenchConfig) -> ShardedMotionService:
    """One freshly-populated service."""
    return _populate(build_service(ServeBenchConfig(
        n=config.n,
        shards=config.shards,
        method=config.method,
        router=config.router,
        seed=config.seed,
    )), config)


def _apply_scalar(target, op: WriteOp) -> Optional[Exception]:
    """One write through ``target``'s scalar methods (a service's or
    the reference database's)."""
    try:
        if isinstance(op, RegisterOp):
            target.register(op.oid, op.y0, op.v, op.t0)
        elif isinstance(op, ReportOp):
            target.report(op.oid, op.y0, op.v, op.t0)
        else:
            target.deregister(op.oid)
    except (InvalidMotionError, ObjectNotFoundError) as exc:
        return exc
    return None


def _probe_stream(
    rng: random.Random, config: UpdateBenchConfig
) -> List[Tuple]:
    horizon = float(config.rounds)
    probes: List[Tuple] = []
    for q in range(config.probe_queries):
        t1 = horizon + rng.uniform(0.0, 10.0)
        kind = q % 3
        if kind == 0:
            y1 = rng.uniform(0.0, DEFAULT_Y_MAX * 0.85)
            probes.append((
                "within", y1, y1 + DEFAULT_Y_MAX * 0.1,
                t1, t1 + rng.uniform(1.0, 10.0),
            ))
        elif kind == 1:
            y1 = rng.uniform(0.0, DEFAULT_Y_MAX * 0.9)
            probes.append(("snapshot", y1, y1 + DEFAULT_Y_MAX * 0.05, t1))
        else:
            probes.append((
                "nearest", rng.uniform(0.0, DEFAULT_Y_MAX), t1,
                rng.randint(1, 8),
            ))
    return probes


def _answer(target, probe: Tuple):
    if probe[0] == "within":
        return target.within(probe[1], probe[2], probe[3], probe[4])
    if probe[0] == "snapshot":
        return target.snapshot_at(probe[1], probe[2], probe[3])
    return target.nearest(probe[1], probe[2], probe[3])


def _scan(motions, probe: Tuple):
    """Brute-force answer over a catalog: the scalar predicates for
    range probes, the ``(distance, oid)``-sorted prefix for k-NN."""
    if probe[0] == "nearest":
        ranked = sorted(
            (abs(m.position(probe[2]) - probe[1]), oid)
            for oid, m in motions.items()
        )
        return [(oid, dist) for dist, oid in ranked[:probe[3]]]
    t1 = probe[3]
    t2 = probe[4] if probe[0] == "within" else t1
    return brute_force_1d(
        (MobileObject1D(oid, m) for oid, m in motions.items()),
        MORQuery1D(probe[1], probe[2], t1, t2),
    )


def _catalog(target) -> Dict[int, Tuple[float, float, float]]:
    return {
        oid: (m.y0, m.v, m.t0)
        for oid, m in target.motion_snapshot().items()
    }


def run_update_bench(config: UpdateBenchConfig) -> UpdateBenchReport:
    """Populate two services, run both legs, compare everything."""
    if config.n < 1:
        raise ValueError(f"need at least 1 object, got n={config.n}")
    if config.rounds < 1:
        raise ValueError(
            f"need at least 1 round, got rounds={config.rounds}"
        )
    if config.batch_size < 1:
        raise ValueError(
            f"batch_size must be >= 1, got {config.batch_size}"
        )
    if not 0.0 <= config.churn_fraction <= 0.5:
        raise ValueError(
            f"churn_fraction must be in [0, 0.5], got "
            f"{config.churn_fraction}"
        )
    rng = random.Random(config.seed)
    stream = build_update_stream(rng, config)
    op_counts: Dict[str, int] = {}
    for op in stream:
        name = type(op).__name__
        op_counts[name] = op_counts.get(name, 0) + 1

    reference = _populate(
        MotionDatabase(
            DEFAULT_Y_MAX, DEFAULT_V_MIN, DEFAULT_V_MAX,
            method=config.method,
        ),
        config,
    )
    scalar_service = _service(config)
    batch_service = _service(config)

    # Reference: the same stream through the engine's scalar writes.
    reference_outcomes = [_apply_scalar(reference, op) for op in stream]

    # Scalar leg: one service call per write.
    start = time.perf_counter()
    scalar_outcomes = [_apply_scalar(scalar_service, op) for op in stream]
    scalar_s = time.perf_counter() - start

    # Batch leg: same stream, chunked through apply_batch.
    vector_outcomes: List[Optional[Exception]] = []
    start = time.perf_counter()
    for begin in range(0, len(stream), config.batch_size):
        vector_outcomes.extend(
            batch_service.apply_batch(
                stream[begin:begin + config.batch_size]
            )
        )
    vector_s = time.perf_counter() - start

    divergences: List[str] = []
    legs = (
        ("scalar", scalar_service, scalar_outcomes),
        ("batched", batch_service, vector_outcomes),
    )
    for i, want in enumerate(reference_outcomes):
        scalar_got, batch_got = scalar_outcomes[i], vector_outcomes[i]
        if not type(want) is type(scalar_got) is type(batch_got) or (
            str(scalar_got) != str(batch_got)
        ):
            divergences.append(
                f"outcome[{i}]: reference {want!r}, scalar "
                f"{scalar_got!r}, batched {batch_got!r}"
            )

    want_catalog = _catalog(reference)
    for leg, service, _ in legs:
        got_catalog = _catalog(service)
        if want_catalog != got_catalog:
            delta = set(want_catalog.items()) ^ set(got_catalog.items())
            divergences.append(
                f"{leg} catalog: {len(delta)} entries differ from the "
                f"reference (sample {sorted(delta)[:3]})"
            )

    probes = _probe_stream(rng, config)
    motions = reference.motion_snapshot()
    for i, probe in enumerate(probes):
        want = _answer(reference, probe)
        if want != _scan(motions, probe):
            divergences.append(
                f"probe[{i}] {probe[0]}: reference differs from a scan"
            )
        for leg, service, _ in legs:
            if _answer(service, probe) != want:
                divergences.append(
                    f"probe[{i}] {probe[0]}: {leg} answer differs"
                )

    report = UpdateBenchReport(
        config=config,
        scalar_s=scalar_s,
        vector_s=vector_s,
        op_count=len(stream),
        op_counts=op_counts,
        divergences=divergences,
        probes=len(probes),
    )
    if config.json_path:
        report.write_json(config.json_path)
    return report
