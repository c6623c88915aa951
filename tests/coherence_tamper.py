"""Write-through tamper views over a :class:`CoherenceDirectory`.

The directory keeps its per-tile state in parallel arrays (see
:mod:`repro.memory.coherence`).  The verification tests need to seed
protocol-illegal states — two owners, a valid flight destination, a stale
flight generation — that no public transition produces, so they assign
through these views instead.  They live here rather than on the directory:
a view stored on the directory would point back at it and make every
directory a reference cycle.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping

from repro.memory.coherence import CoherenceDirectory, InFlight, ReplicaState
from repro.memory.tile import TileKey


class StatesView(MutableMapping):
    """Write-through ``location -> ReplicaState`` view over the bitmasks."""

    __slots__ = ("_d", "_tid")

    def __init__(self, directory: CoherenceDirectory, tid: int) -> None:
        self._d = directory
        self._tid = tid

    def __getitem__(self, loc: int) -> ReplicaState:
        d, tid, bit = self._d, self._tid, 1 << (loc + 1)
        if not d._valid[tid] & bit:
            raise KeyError(loc)
        return ReplicaState.MODIFIED if d._mod[tid] & bit else ReplicaState.SHARED

    def __setitem__(self, loc: int, state: ReplicaState) -> None:
        d, tid, bit = self._d, self._tid, 1 << (loc + 1)
        d._valid[tid] |= bit
        if state is ReplicaState.MODIFIED:
            d._mod[tid] |= bit
        else:
            d._mod[tid] &= ~bit

    def __delitem__(self, loc: int) -> None:
        d, tid, bit = self._d, self._tid, 1 << (loc + 1)
        if not d._valid[tid] & bit:
            raise KeyError(loc)
        d._valid[tid] &= ~bit
        d._mod[tid] &= ~bit

    def __iter__(self) -> Iterator[int]:
        m = self._d._valid[self._tid]
        while m:
            low = m & -m
            yield low.bit_length() - 2  # bit index - 1 == location
            m ^= low

    def __len__(self) -> int:
        return self._d._valid[self._tid].bit_count()


class TileEntryView:
    """Mutable per-tile view: ``states``, ``in_flight`` and ``generation``."""

    __slots__ = ("_d", "_tid")

    def __init__(self, directory: CoherenceDirectory, tid: int) -> None:
        self._d = directory
        self._tid = tid

    @property
    def states(self) -> StatesView:
        return StatesView(self._d, self._tid)

    @property
    def in_flight(self) -> dict[int, InFlight]:
        return self._d._flights[self._tid]

    @property
    def generation(self) -> int:
        return self._d._gen[self._tid]

    @generation.setter
    def generation(self, value: int) -> None:
        self._d._gen[self._tid] = value


def tile_entry(directory: CoherenceDirectory, key: TileKey) -> TileEntryView:
    """The tamper view of ``key``'s entry, interning it host-valid if new."""
    return TileEntryView(directory, directory.lookup(key))
