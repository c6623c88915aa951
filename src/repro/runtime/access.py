"""Data access modes.

Tasks declare how they touch each tile; the dependency builder
(:mod:`repro.runtime.dataflow`) derives the DAG from these declarations, the
dependent-task model of XKaapi (paper §I, §III).
"""

from __future__ import annotations

import enum

from repro.memory.tile import Tile


class AccessMode(enum.Flag):
    """How a task accesses a tile.

    ``reads``/``writes`` use identity checks over the three valid members
    rather than flag arithmetic: ``enum.Flag.__and__`` resolves a member
    lookup per call, and the dependency builder plus the executor consult
    these predicates for every access of every task.
    """

    READ = enum.auto()
    WRITE = enum.auto()
    READWRITE = READ | WRITE

    @property
    def reads(self) -> bool:
        return self is not AccessMode.WRITE

    @property
    def writes(self) -> bool:
        return self is not AccessMode.READ


# Short aliases used by the tiled algorithms, mirroring task-runtime idiom.
R = AccessMode.READ
W = AccessMode.WRITE
RW = AccessMode.READWRITE


class Access:
    """One (tile, mode) declaration of a task.

    ``reads``/``writes`` are materialized as plain attributes at construction
    (rather than properties chaining into enum arithmetic) — they are read on
    every dependency derivation, launch and completion.

    A hand-written ``__slots__`` class rather than a frozen dataclass: builders
    create one per operand per task (three per GEMM tile task), and the frozen
    machinery's ``object.__setattr__`` calls tripled the construction cost of
    the graph-build phase.  Instances are immutable by convention, and
    weak-referenceable so a tile can intern its accesses without a cycle.
    """

    __slots__ = ("tile", "mode", "reads", "writes", "__weakref__")

    def __init__(self, tile: Tile, mode: AccessMode) -> None:
        self.tile = tile
        self.mode = mode
        self.reads = mode is not AccessMode.WRITE
        self.writes = mode is not AccessMode.READ

    def __repr__(self) -> str:
        tag = {AccessMode.READ: "R", AccessMode.WRITE: "W", AccessMode.READWRITE: "RW"}[
            self.mode
        ]
        return f"{tag}:{self.tile.key!r}"
