"""Tile handles.

A :class:`Tile` is the unit of data management: one block of a partitioned
matrix, identified by :class:`TileKey` ``(matrix_id, i, j)``.  The runtime's
coherence directory, caches and transfer manager all speak in tiles.  Tiles
reference a host-side :class:`~repro.memory.view.MemoryView`; their device
copies always use the compacted dense form (paper §III-A).
"""

from __future__ import annotations

import dataclasses
import typing
import weakref

from repro.memory.view import MemoryView

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.memory.matrix import Matrix


class TileKey(typing.NamedTuple):
    """Identity of a tile: owning matrix and block coordinates.

    A :class:`~typing.NamedTuple` rather than a dataclass: tile keys index
    every directory, cache and datastore map, so they are hashed on each of
    the ~30 dict probes a task induces.  The tuple form keeps hashing and
    equality entirely in C — no Python ``__hash__`` frame per probe — and a
    tuple of ints hashes identically across processes (``PYTHONHASHSEED``
    salts only str/bytes), which preserves the determinism contract that the
    previous hand-written arithmetic hash provided (lint rule L002 concerns
    explicit ``hash()`` calls, not ``__hash__`` implementations).  Note the
    runtime never *iterates* a set of keys, so the changed hash values cannot
    reorder anything observable.
    """

    matrix_id: int
    i: int
    j: int

    def __repr__(self) -> str:
        return f"T({self.matrix_id}:{self.i},{self.j})"


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class Tile:
    """One block of a partitioned matrix.

    Equality/hash is identity-based (each partition creates its tiles once),
    while :attr:`key` provides the stable value identity used by directories.
    """

    key: TileKey
    view: MemoryView
    matrix: "Matrix"
    #: bytes of a device (compact) copy and element width, precomputed from
    #: the (immutable) view: the transfer manager and cost models consult
    #: these once or more per task, so the property->view chase is paid once
    #: at partition time instead.
    nbytes: int = dataclasses.field(init=False, repr=False)
    wordsize: int = dataclasses.field(init=False, repr=False)
    #: block shape, copied out of the view once — the tiled builders read
    #: ``m``/``n`` per emitted task to derive flops and dims.
    m: int = dataclasses.field(init=False, repr=False)
    n: int = dataclasses.field(init=False, repr=False)
    #: weak references to the interned READ/READWRITE/WRITE
    #: :class:`~repro.runtime.access.Access` objects — see :attr:`read_access`.
    _read_access: object = dataclasses.field(init=False, repr=False, default=None)
    _rw_access: object = dataclasses.field(init=False, repr=False, default=None)
    _write_access: object = dataclasses.field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nbytes", self.view.payload_bytes)
        object.__setattr__(self, "wordsize", self.view.wordsize)
        object.__setattr__(self, "m", self.view.m)
        object.__setattr__(self, "n", self.view.n)

    def _intern(self, slot: str, mode_name: str):
        from repro.runtime.access import Access, AccessMode

        acc = Access(self, AccessMode[mode_name])
        object.__setattr__(self, slot, weakref.ref(acc))
        return acc

    @property
    def read_access(self):
        """The interned read-only :class:`~repro.runtime.access.Access`.

        Tiled builders declare the same tile as a READ input of many tasks
        (one A-panel tile feeds a whole block row of GEMMs); accesses are
        immutable after construction, so every reader can share one object
        instead of allocating per task.  The tile keeps only a weak reference:
        the access points back at the tile, and a strong one would make every
        tile a reference cycle.  Once no task holds the access it dies and the
        next request interns a fresh, equal one.  Lazy import avoids a module
        cycle (``runtime.access`` type-hints against ``memory.tile``).
        """
        ref = self._read_access
        if ref is not None and (acc := ref()) is not None:
            return acc
        return self._intern("_read_access", "READ")

    @property
    def rw_access(self):
        """The interned READWRITE access (one per chain of accumulating
        tasks on an output tile — see :attr:`read_access` for the rationale)."""
        ref = self._rw_access
        if ref is not None and (acc := ref()) is not None:
            return acc
        return self._intern("_rw_access", "READWRITE")

    @property
    def write_access(self):
        """The interned WRITE-only access (chain heads under ``beta == 0``)."""
        ref = self._write_access
        if ref is not None and (acc := ref()) is not None:
            return acc
        return self._intern("_write_access", "WRITE")

    @property
    def i(self) -> int:
        return self.key.i

    @property
    def j(self) -> int:
        return self.key.j

    def host_slice(self) -> tuple[slice, slice]:
        """NumPy (row, col) slices of this tile inside the host matrix array."""
        ld = self.view.ld
        row = self.view.offset % ld
        col = self.view.offset // ld
        return (slice(row, row + self.m), slice(col, col + self.n))

    def __repr__(self) -> str:
        return f"Tile({self.key!r}, {self.m}x{self.n})"
