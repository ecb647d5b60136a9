"""Shard-routing policies and ownership state for the sharded service.

The scaling move for moving-object indexes (MOIST; distributed
continuous-range-query processing) is to partition the object
population across ``k`` independent single-node indexes and fan
queries out.  Which objects land together is the routing policy:

* :class:`HashRouter` — stable hash partitioning by object id.  Every
  shard sees the same motion mix, load balances statistically, and an
  object never migrates (its id never changes), so updates stay
  single-shard.
* :class:`BandRouter` / :class:`VelocityRouter` — partition by speed
  band, the velocity/speed-partitioning idea: each shard's population
  has a narrow ``[v_lo, v_hi]``, which tightens that shard's
  dual-transform bounding regions (the paper's §3.5 rectangles shrink
  with the speed band).  The routed shard depends on the *motion*, so
  a speed-change update can migrate the object between shards; the
  service handles that inside its all-shard write lock.  Band edges
  are **mutable**: the rebalance controller re-cuts them against the
  live velocity histogram (epoch-numbered, so replicas and recovery
  agree on which layout is newest).

Routers are deterministic pure functions of (oid, motion, band
epoch) — the differential test harness relies on replaying the same
route decisions across runs.

Routing answers "where *should* this object live"; :class:`OwnershipTable`
answers "where does it live *right now*".  The two differ while a
two-phase migration is in flight: the object is resident on both the
source and the destination shard, reads must merge over both, and
writes double-apply.  The table hands out monotonically increasing
migration epochs — the fencing tokens that keep a stale participant
(an aborted migration's double-writer, a superseded commit) from
forking ownership.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.model import LinearMotion1D
from repro.errors import ObjectNotFoundError, StaleMigrationError

#: Knuth's multiplicative-hash constant (2^32 / phi), for id mixing.
_FIB_MIX = 2654435761
_MASK_32 = 0xFFFFFFFF


def mix_oid(oid: int) -> int:
    """Deterministic 32-bit mix of an object id.

    Plain ``oid % k`` clusters consecutive ids onto the same shard for
    small strides; Fibonacci mixing spreads them.  Python's ``hash`` is
    identity on small ints, so it is mixed explicitly here.
    """
    x = (oid * _FIB_MIX) & _MASK_32
    x ^= x >> 16
    return x


class ShardRouter(abc.ABC):
    """Maps an object (id + motion) to one of ``k`` shards."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        self.shards = shards

    @abc.abstractmethod
    def route(self, oid: int, motion: LinearMotion1D) -> int:
        """The shard (``0 <= shard < shards``) that owns this object."""

    @property
    def motion_sensitive(self) -> bool:
        """True when an update can change the routed shard."""
        return False


class HashRouter(ShardRouter):
    """Stable hash partitioning by object id (the default policy)."""

    name = "hash"

    def route(self, oid: int, motion: LinearMotion1D) -> int:
        return mix_oid(oid) % self.shards


class BandRouter(ShardRouter):
    """Partition by speed band over *mutable* edges.

    Shard ``i`` owns speeds ``|v|`` in ``[edges[i-1], edges[i])``
    (half-open; the last band is closed above by clamping, so a speed
    at or beyond ``v_max`` still routes).  Edges default to an even
    split of ``[0, v_max]`` and can be replaced wholesale with
    :meth:`set_bands` — the rebalance controller's lever.  Each
    replacement carries a strictly increasing *band epoch* so every
    holder of the layout (live replicas, WAL recovery) can tell which
    cut is newest.
    """

    name = "band"

    def __init__(
        self,
        shards: int,
        v_max: float,
        edges: Optional[Iterable[float]] = None,
    ) -> None:
        super().__init__(shards)
        if v_max <= 0:
            raise ValueError(f"v_max must be positive, got {v_max}")
        self.v_max = v_max
        self.epoch = 0
        if edges is None:
            self._edges: Tuple[float, ...] = tuple(
                v_max * i / shards for i in range(1, shards)
            )
        else:
            self._edges = self._validated(edges)

    def _validated(self, edges: Iterable[float]) -> Tuple[float, ...]:
        cut = tuple(float(edge) for edge in edges)
        if len(cut) != self.shards - 1:
            raise ValueError(
                f"{self.shards} bands need {self.shards - 1} interior "
                f"edges, got {len(cut)}"
            )
        previous = 0.0
        for edge in cut:
            if not previous < edge < self.v_max:
                raise ValueError(
                    f"band edges must be strictly increasing inside "
                    f"(0, {self.v_max}), got {cut}"
                )
            previous = edge
        return cut

    def band_edges(self) -> Tuple[float, ...]:
        """The current interior band boundaries (``shards - 1`` of them)."""
        return self._edges

    def band_of(self, speed: float) -> int:
        """The band index owning speed magnitude ``|speed|``."""
        return min(
            bisect.bisect_right(self._edges, abs(speed)), self.shards - 1
        )

    def route(self, oid: int, motion: LinearMotion1D) -> int:
        return self.band_of(motion.v)

    def set_bands(self, edges: Iterable[float], epoch: int) -> None:
        """Install a new band layout under a strictly newer epoch.

        Validation happens before any state changes, so a rejected cut
        leaves the previous layout fully intact.
        """
        cut = self._validated(edges)
        if epoch <= self.epoch:
            raise StaleMigrationError(
                f"band epoch {epoch} is not newer than the installed "
                f"epoch {self.epoch}"
            )
        self._edges = cut
        self.epoch = epoch

    @property
    def motion_sensitive(self) -> bool:
        return True


class VelocityRouter(BandRouter):
    """Even-width speed bands over ``[0, v_max]`` (the historical
    velocity-partitioning default).

    Identical to :class:`BandRouter` with the default even cut —
    including the mutable edges, so a ``router="velocity"`` service is
    rebalance-capable out of the box.
    """

    name = "velocity"

    def __init__(self, shards: int, v_max: float) -> None:
        super().__init__(shards, v_max)


@dataclass(frozen=True)
class MigrationState:
    """One in-flight two-phase object migration (the fencing token).

    Immutable: holders compare epochs against the ownership table's
    live state to learn whether they are still current.
    """

    oid: int
    source: int
    dest: int
    epoch: int


class OwnershipTable:
    """oid → owner shard, plus in-flight migrations and fencing epochs.

    Not thread-safe by itself — the service calls every method under
    its catalog lock (the table *is* the catalog's ownership half).
    ``owner`` is exposed as a plain dict on purpose: the service's
    existing code paths read and write it directly, and the table adds
    the migration machinery alongside without changing their contract.
    """

    def __init__(self) -> None:
        self.owner: Dict[int, int] = {}
        self._migrations: Dict[int, MigrationState] = {}
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """The most recently issued migration epoch."""
        return self._epoch

    def next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def observe_epoch(self, epoch: int) -> None:
        """Advance the epoch floor (recovery replays recorded epochs)."""
        self._epoch = max(self._epoch, int(epoch))

    def migration_of(self, oid: int) -> Optional[MigrationState]:
        return self._migrations.get(oid)

    def migrations(self) -> Dict[int, MigrationState]:
        """All in-flight migrations (a fresh dict)."""
        return dict(self._migrations)

    def owners_of(self, oid: int) -> Tuple[int, ...]:
        """Every shard currently holding ``oid``: ``(owner,)`` in
        steady state, ``(source, dest)`` while a migration is in
        flight.  This is the two-shard ownership set reads merge over.
        """
        owner = self.owner.get(oid)
        if owner is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        state = self._migrations.get(oid)
        if state is None or state.dest == owner:
            return (owner,)
        return (owner, state.dest)

    def begin_migration(self, oid: int, source: int, dest: int) -> MigrationState:
        """Open a migration and issue its fencing epoch."""
        if self.owner.get(oid) != source:
            raise StaleMigrationError(
                f"object {oid} is owned by {self.owner.get(oid)}, "
                f"not migration source {source}"
            )
        if oid in self._migrations:
            raise StaleMigrationError(
                f"object {oid} is already migrating "
                f"({self._migrations[oid]})"
            )
        if source == dest:
            raise ValueError(
                f"migration source and destination are both {source}"
            )
        state = MigrationState(oid, source, dest, self.next_epoch())
        self._migrations[oid] = state
        return state

    def _current(self, state: MigrationState) -> MigrationState:
        live = self._migrations.get(state.oid)
        if live is None or live.epoch != state.epoch:
            raise StaleMigrationError(
                f"migration {state} is stale; live state is {live}"
            )
        return live

    def admits(self, oid: int, epoch: int) -> bool:
        """Fencing check for a double-write: is this epoch still the
        live migration for ``oid``?"""
        state = self._migrations.get(oid)
        return state is not None and state.epoch == epoch

    def commit_migration(self, state: MigrationState) -> None:
        """Fenced cutover: ownership moves to the destination."""
        self._current(state)
        del self._migrations[state.oid]
        self.owner[state.oid] = state.dest

    def abort_migration(self, state: MigrationState) -> None:
        """Fenced abort: ownership stays with the source."""
        self._current(state)
        del self._migrations[state.oid]

    def drop(self, oid: int) -> None:
        """Forget an object entirely (deregister path) — clears any
        in-flight migration with it."""
        self.owner.pop(oid, None)
        self._migrations.pop(oid, None)
