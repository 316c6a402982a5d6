"""The compiled form of an interleaved stream: four flat columns.

The interleaving is a pure function of the programs and the quantum, so
the accuracy path interleaves each workload once and replays the result
for every census, oracle and accuracy run. Holding the stream as a list
of event objects would cost tens of bytes per event per stream; a
:class:`CompiledStream` keeps one ``array`` per field instead:

* ``ops`` — :data:`OP_READ`, :data:`OP_WRITE`, or a sync op (one per
  :class:`~repro.trace.events.SyncKind`, see :func:`sync_kind`);
* ``nodes`` — the issuing node;
* ``ids`` — the access's pc, or the boundary's sync id;
* ``addresses`` — the access's byte address (0 for a boundary).

This module is the only one that knows the encoding. Iterating a
compiled stream yields :class:`~repro.trace.events.MemoryAccess` and
:class:`~repro.trace.events.SyncBoundary` events again, so every stream
consumer accepts it unchanged. The timing-only ``work`` field is not
kept (no consumer of an interleaved stream reads it), nor are events
of any other type (every consumer skips them). Pcs, sync ids and
addresses must fit a signed 64-bit integer.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Tuple, Union

from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind

OP_READ = 0
OP_WRITE = 1

#: sync op codes follow the access ops, one per kind in declaration order
_SYNC_KINDS: Tuple[SyncKind, ...] = tuple(SyncKind)
_SYNC_OPS = {kind: OP_WRITE + 1 + i for i, kind in enumerate(_SYNC_KINDS)}


def sync_kind(op: int) -> SyncKind:
    """The :class:`SyncKind` of a sync op (any op above ``OP_WRITE``)."""
    return _SYNC_KINDS[op - OP_WRITE - 1]


class CompiledStream:
    """An interleaved event stream held as flat ``array`` columns."""

    __slots__ = ("ops", "nodes", "ids", "addresses")

    def __init__(self) -> None:
        self.ops = array("b")
        self.nodes = array("i")
        self.ids = array("q")
        self.addresses = array("q")

    def columns(self) -> Tuple[array, array, array, array]:
        """``(ops, nodes, ids, addresses)``, index-aligned."""
        return self.ops, self.nodes, self.ids, self.addresses

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Union[MemoryAccess, SyncBoundary]]:
        for op, node, ident, address in zip(*self.columns()):
            if op > OP_WRITE:
                yield SyncBoundary(node, sync_kind(op), ident)
            else:
                yield MemoryAccess(node, ident, address, op == OP_WRITE)


def compile_stream(events: Iterable) -> CompiledStream:
    """Drain ``events`` into a :class:`CompiledStream` (returned as is
    when it already is one)."""
    if isinstance(events, CompiledStream):
        return events
    stream = CompiledStream()
    put_op = stream.ops.append
    put_node = stream.nodes.append
    put_id = stream.ids.append
    put_address = stream.addresses.append
    for ev in events:
        if isinstance(ev, MemoryAccess):
            put_op(OP_WRITE if ev.is_write else OP_READ)
            put_id(ev.pc)
            put_address(ev.address)
        elif isinstance(ev, SyncBoundary):
            put_op(_SYNC_OPS[ev.kind])
            put_id(ev.sync_id)
            put_address(0)
        else:
            continue
        put_node(ev.node)
    return stream
