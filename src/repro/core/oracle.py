"""Oracle last-touch policy: a perfect-knowledge upper bound (ablation).

Not part of the paper's mechanisms, but the natural ceiling for any
last-touch predictor: fire a self-invalidation at exactly the final
access a node makes to a block before an external invalidation would
remove it.

Because the interleaving scheduler is deterministic and independent of
coherence state, the per-node access streams are identical between a
profiling run and a prediction run; so the oracle is built in two
passes: :func:`compute_last_touch_ordinals` replays the stream through a
coherence engine and records, for each node, the node-local ordinals of
accesses that turned out to be last touches; :class:`OraclePolicy` then
fires at exactly those ordinals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.core.base import (
    DECISION_FIRE,
    DECISION_KEEP,
    PolicyDecision,
    SelfInvalidationPolicy,
)
from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import MissKind, ProtocolVariant
from repro.trace.events import MemoryAccess


def compute_last_touch_ordinals(
    stream: Iterable,
    num_nodes: int,
    block_shift: int = 5,
    variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
) -> Dict[int, Set[int]]:
    """Profile ``stream`` and return node -> set of last-touch ordinals.

    An access's *ordinal* is its index in that node's own access stream
    (0-based). An access is a last touch when the node's copy of the
    block is externally invalidated before the node touches it again,
    under the protocol ``variant`` the oracle will run against (a
    downgraded writer keeps its copy, so its trace goes on).
    """
    engine = CoherenceEngine(
        num_nodes, block_shift=block_shift, variant=variant
    )
    ordinal = [0] * num_nodes
    last_access: Dict[int, Dict[int, int]] = {
        n: {} for n in range(num_nodes)
    }
    result: Dict[int, Set[int]] = {n: set() for n in range(num_nodes)}
    for ev in stream:
        if not isinstance(ev, MemoryAccess):
            continue
        res = engine.access(ev.node, ev.pc, ev.address, ev.is_write)
        for inv in res.invalidations:
            mark = last_access[inv.node].get(inv.block)
            if mark is not None:
                result[inv.node].add(mark)
        last_access[ev.node][res.block] = ordinal[ev.node]
        ordinal[ev.node] += 1
    return result


class OraclePolicy(SelfInvalidationPolicy):
    """Fires exactly at profiled last-touch ordinals for one node."""

    name = "oracle"

    def __init__(self, last_touch_ordinals: Set[int]) -> None:
        self._ordinals = last_touch_ordinals
        self._next = 0

    def on_access(
        self,
        block: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
    ) -> PolicyDecision:
        fire = self._next in self._ordinals
        self._next += 1
        return DECISION_FIRE if fire else DECISION_KEEP
