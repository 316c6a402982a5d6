"""Trace infrastructure: events, per-node programs, and interleaving.

The paper's predictors consume two per-node event streams: the memory
instructions the processor executes against shared blocks, and the
invalidation messages the coherence protocol delivers. This package
defines those event types (:mod:`repro.trace.events`), a small step
language for describing each node's program (:mod:`repro.trace.program`),
and a deterministic scheduler that interleaves per-node programs into the
single global stream consumed by the functional coherence simulator
(:mod:`repro.trace.scheduler`), held once per workload in the flat
compiled form every accuracy run replays (:mod:`repro.trace.compiled`).
"""

from repro.trace.compiled import CompiledStream, compile_stream
from repro.trace.events import (
    Invalidation,
    InvalidationReason,
    MemoryAccess,
    SyncBoundary,
    SyncKind,
)
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from repro.trace.scheduler import InterleavingScheduler, interleave
from repro.trace.stats import StreamStats, collect_stream_stats

__all__ = [
    "Access",
    "Barrier",
    "CompiledStream",
    "Invalidation",
    "InvalidationReason",
    "InterleavingScheduler",
    "LockAcquire",
    "LockRelease",
    "MemoryAccess",
    "Program",
    "ProgramSet",
    "StreamStats",
    "SyncBoundary",
    "SyncKind",
    "collect_stream_stats",
    "compile_stream",
    "interleave",
]
