"""Shared test helpers: small random mobile-object populations."""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core import (
    LinearMotion1D,
    MobileObject1D,
    MORQuery1D,
    MotionModel,
    Terrain1D,
)
from repro.core.predicates import brute_force_1d
from repro.vector.ops import Nearest, SnapshotAt, Within

#: The paper's §5 parameters, scaled down to a 1000-unit terrain.
PAPER_MODEL = MotionModel(Terrain1D(1000.0), v_min=0.16, v_max=1.66)


def random_objects(
    rng: random.Random,
    n: int,
    model: MotionModel = PAPER_MODEL,
    t0_max: float = 100.0,
) -> List[MobileObject1D]:
    """Uniform population following the paper's generator (section 5)."""
    objects = []
    for oid in range(n):
        speed = rng.uniform(model.v_min, model.v_max)
        direction = 1 if rng.random() < 0.5 else -1
        motion = LinearMotion1D(
            y0=rng.uniform(0, model.terrain.y_max),
            v=direction * speed,
            t0=rng.uniform(0, t0_max),
        )
        objects.append(MobileObject1D(oid, motion))
    return objects


def random_queries(
    rng: random.Random,
    n: int,
    model: MotionModel = PAPER_MODEL,
    yq_max: float = 150.0,
    tw_max: float = 60.0,
    t_now: float = 100.0,
) -> List[MORQuery1D]:
    """Random future-window queries (paper's YQMAX / TW scheme)."""
    queries = []
    for _ in range(n):
        y1 = rng.uniform(0, model.terrain.y_max)
        y2 = min(y1 + rng.uniform(0, yq_max), model.terrain.y_max)
        t1 = t_now + rng.uniform(0, tw_max)
        t2 = min(t1 + rng.uniform(0, tw_max), t_now + tw_max)
        t2 = max(t1, t2)
        queries.append(MORQuery1D(y1, y2, t1, t2))
    return queries


def grid_motions(
    rng: random.Random, n: int, span: int = 40
) -> Dict[int, LinearMotion1D]:
    """Integer-grid motions (``y0``, ``t0`` integers, ``v = ±1``).

    At integer instants every position is an integer, so k-NN
    distances from an integer point tie often — including at the
    ``k``-th place, where the oid tie-break decides membership.
    """
    return {
        oid: LinearMotion1D(
            float(rng.randrange(span)),
            rng.choice((-1.0, 1.0)),
            float(rng.randrange(4)),
        )
        for oid in range(n)
    }


def grid_queries(rng: random.Random, count: int, span: int = 40) -> list:
    """Integer-valued Within / SnapshotAt / Nearest ops over a grid."""
    ops = []
    for q in range(count):
        y1 = float(rng.randrange(span))
        y2 = y1 + rng.randrange(1, 8)
        t1 = float(rng.randrange(4, 10))
        kind = q % 3
        if kind == 0:
            ops.append(Within(y1, y2, t1, t1 + rng.randrange(3)))
        elif kind == 1:
            ops.append(SnapshotAt(y1, y2, t1))
        else:
            ops.append(Nearest(y1, t1, k=rng.randint(1, 12)))
    return ops


def oracle_answer(motions: Dict[int, LinearMotion1D], op):
    """Brute-force answer: a full scan with the scalar predicates, and
    k-NN as the ``(distance, oid)``-sorted prefix."""
    if isinstance(op, Nearest):
        ranked = sorted(
            (abs(m.position(op.t) - op.y), oid) for oid, m in motions.items()
        )
        return [(oid, dist) for dist, oid in ranked[: op.k]]
    objects = [MobileObject1D(oid, m) for oid, m in motions.items()]
    if isinstance(op, Within):
        return brute_force_1d(objects, MORQuery1D(op.y1, op.y2, op.t1, op.t2))
    if isinstance(op, SnapshotAt):
        return brute_force_1d(objects, MORQuery1D(op.y1, op.y2, op.t, op.t))
    raise TypeError(f"no oracle for {op!r}")
