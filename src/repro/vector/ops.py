"""Query- and write-operation vocabulary shared by the batch paths.

These dataclasses are the wire format of one *read* or *write*
request: the batch executor groups them into epochs,
``MotionDatabase.query_batch`` and ``ShardedMotionService.query_batch``
evaluate lists of query ops in one kernel invocation, the versioned
result cache keys on them, and ``apply_batch``/``report_batch`` apply
lists of write ops through one grouped pass per shard.  They live here
— below both the engine and the service layer — so that
``repro.engine`` can accept them without importing ``repro.service``
(which imports the engine).  ``repro.service.executor`` re-exports
them under their historical names, so existing callers are untouched.

This module must stay importable without ``numpy``: only the kernels
need the array stack, the vocabulary does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple, Union

from repro.errors import InvalidMotionError, InvalidQueryError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.model import MotionModel


@dataclass(frozen=True)
class Within:
    """MOR query: objects in ``[y1, y2]`` sometime in ``[t1, t2]``."""

    y1: float
    y2: float
    t1: float
    t2: float


@dataclass(frozen=True)
class SnapshotAt:
    """Instant query: objects in ``[y1, y2]`` exactly at ``t``."""

    y1: float
    y2: float
    t: float


@dataclass(frozen=True)
class Nearest:
    """The ``k`` objects nearest to ``y`` at time ``t``."""

    y: float
    t: float
    k: int = 1


@dataclass(frozen=True)
class ProximityPairs:
    """Unordered pairs coming within ``d`` during ``[t1, t2]``."""

    d: float
    t1: float
    t2: float


QueryOp = Union[Within, SnapshotAt, Nearest, ProximityPairs]


def validate_query(op: QueryOp) -> None:
    """Reject what no answer path can rank or bound consistently.

    Raises ``TypeError`` for anything outside the query vocabulary,
    and :class:`~repro.errors.InvalidQueryError` for a NaN in any
    field of a ``Within`` / ``SnapshotAt`` / ``Nearest`` (every
    comparison against NaN is false, so the index and the kernels
    would each answer something different), for a non-finite
    ``Nearest.y`` or ``Nearest.t`` (every distance would be infinite
    or NaN), and for an empty y-range or time window (the scalar
    query types reject those; the kernels would answer ``set()``).
    The batch and scalar read paths both call it before touching a
    shard.
    """
    if isinstance(op, ProximityPairs):
        return
    if not isinstance(op, (Within, SnapshotAt, Nearest)):
        raise TypeError(f"unknown query operation {op!r}")
    if any(value != value for value in vars(op).values()):
        raise InvalidQueryError(f"NaN query parameter in {op!r}")
    if isinstance(op, Nearest):
        if not (math.isfinite(op.y) and math.isfinite(op.t)):
            raise InvalidQueryError(f"non-finite k-NN query point in {op!r}")
        return
    if op.y1 > op.y2:
        raise InvalidQueryError(f"empty y-range [{op.y1}, {op.y2}]")
    if isinstance(op, Within) and op.t1 > op.t2:
        raise InvalidQueryError(f"empty time window [{op.t1}, {op.t2}]")


@dataclass(frozen=True)
class RegisterOp:
    """Write op: admit a new object with motion ``y(t) = y0 + v·(t−t0)``."""

    oid: int
    y0: float
    v: float
    t0: float


@dataclass(frozen=True)
class ReportOp:
    """Write op: replace an existing object's motion parameters."""

    oid: int
    y0: float
    v: float
    t0: float


@dataclass(frozen=True)
class DeregisterOp:
    """Write op: remove an object from the live population."""

    oid: int


WriteOp = Union[RegisterOp, ReportOp, DeregisterOp]


def validate_write(op: WriteOp, model: MotionModel) -> None:
    """Reject a motion no index can hold, before any state changes.

    Raises :class:`~repro.errors.InvalidMotionError` for ``|v| >
    v_max``, a ``y0`` outside the terrain ``[0, y_max]`` (NaN
    included) and a non-finite ``v`` or ``t0`` (a NaN motion compares
    false against every bound, so the index and the kernels would
    each answer something different).  The checks run in that order,
    so the first two keep the messages the index raises.  A
    ``DeregisterOp`` carries no motion and always passes.  Every write
    path calls it — ``MotionDatabase``'s scalar and batch writes and
    the service batch routine — before the catalog, the index or the
    WAL is touched.
    """
    if isinstance(op, DeregisterOp):
        return
    if abs(op.v) > model.v_max:
        raise InvalidMotionError(f"speed {op.v} above v_max {model.v_max}")
    if not model.terrain.contains(op.y0):
        raise InvalidMotionError(
            f"start location {op.y0} outside terrain "
            f"[0, {model.terrain.y_max}]"
        )
    if not (math.isfinite(op.v) and math.isfinite(op.t0)):
        raise InvalidMotionError(f"non-finite motion parameter in {op!r}")


#: WriteOp class → WAL/trace-dialect record kind (the same dialect the
#: update listeners and ``MotionDatabase.apply_event`` speak).
WRITE_KINDS: Dict[type, str] = {
    RegisterOp: "insert",
    ReportOp: "update",
    DeregisterOp: "delete",
}


def write_record(op: WriteOp) -> Tuple[str, Dict]:
    """``(kind, fields)`` of one write op in the portable trace dialect.

    The fields are exactly what a WAL record for the op carries (and
    what :meth:`repro.engine.MotionDatabase.apply_event` replays), so
    grouped per-shard appends can be built without consulting the op
    classes again.
    """
    if isinstance(op, (RegisterOp, ReportOp)):
        kind = WRITE_KINDS[type(op)]
        return kind, {"oid": op.oid, "y0": op.y0, "v": op.v, "t0": op.t0}
    if isinstance(op, DeregisterOp):
        return "delete", {"oid": op.oid}
    raise TypeError(f"unknown write operation {op!r}")


def query_key(op: QueryOp, bucket: int = 0) -> Tuple:
    """Canonical hashable cache key for one query operation.

    ``bucket`` is the clock bucket the lookup happens in (see
    :class:`repro.vector.cache.QueryResultCache`); entries written in
    one bucket are not visible from another.
    """
    if isinstance(op, Within):
        return ("within", op.y1, op.y2, op.t1, op.t2, bucket)
    if isinstance(op, SnapshotAt):
        return ("snapshot_at", op.y1, op.y2, op.t, bucket)
    if isinstance(op, Nearest):
        return ("nearest", op.y, op.t, op.k, bucket)
    if isinstance(op, ProximityPairs):
        return ("proximity_pairs", op.d, op.t1, op.t2, bucket)
    raise TypeError(f"unknown query operation {op!r}")
