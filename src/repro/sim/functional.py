"""The accuracy simulator: stream -> coherence -> policies -> report.

Drives the deterministic interleaved stream of a workload through the
functional coherence protocol — one fused loop over the stream's
compiled columns, held to :class:`~repro.protocol.coherence.CoherenceEngine`
by the conformance suite — with one self-invalidation policy per node,
performing the paper's Section-4 machinery:

* every external invalidation is delivered to the victim's policy (the
  learning event) and counted *not predicted*;
* a policy firing on an access (LTP family) or at a sync boundary (DSI)
  makes the engine self-invalidate the block, entering it into the
  directory's verification mask;
* mask resolutions surface as *predicted* (verified correct, with
  positive feedback to the policy) or *mispredicted* (premature, with
  negative feedback).

Because the stream is a pure function of the workload, every policy in
an experiment sees the identical access sequence — which is why the
runner interleaves and compiles each workload once and replays it for
every spec.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.base import SelfInvalidationPolicy, StorageReport
from repro.core.oracle import OraclePolicy, compute_last_touch_ordinals
from repro.core.storage import aggregate_reports
from repro.errors import ProtocolError
from repro.protocol.states import (
    CacheState,
    DirState,
    MissKind,
    ProtocolVariant,
)
from repro.sim.results import AccuracyReport
from repro.trace.compiled import OP_WRITE, compile_stream, sync_kind
from repro.trace.program import ProgramSet
from repro.trace.scheduler import interleave

PolicyFactory = Callable[[int], SelfInvalidationPolicy]

DEFAULT_BLOCK_SHIFT = 5


class AccuracySimulator:
    """Runs (workload, policy) pairs and classifies every invalidation.

    Args:
        policy_factory: called once per node id to build that node's
            policy instance.
        quantum: scheduler quantum (see InterleavingScheduler).
        block_shift: log2 block size in bytes.
    """

    def __init__(
        self,
        policy_factory: PolicyFactory,
        quantum: int = 1,
        block_shift: int = DEFAULT_BLOCK_SHIFT,
        variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
    ) -> None:
        self._factory = policy_factory
        self._quantum = quantum
        self._block_shift = block_shift
        self._variant = variant

    @classmethod
    def for_predictor(
        cls, policy_factory: PolicyFactory, **kwargs
    ) -> "AccuracySimulator":
        """Alias constructor; reads naturally at call sites."""
        return cls(policy_factory, **kwargs)

    def run(self, programs: ProgramSet) -> AccuracyReport:
        """Execute the workload and return the accuracy report."""
        return self.run_stream(
            interleave(programs, quantum=self._quantum),
            programs.num_nodes,
            name=programs.name,
        )

    def run_stream(
        self, events, num_nodes: int, name: str = "trace"
    ) -> AccuracyReport:
        """Run an interleaved event stream — compiled
        (:mod:`repro.trace.compiled`) or not, e.g. a replayed trace from
        :mod:`repro.trace.io` — through coherence and the policies.

        One fused loop over the stream's columns: the directory and the
        caches are plain dicts, each node's policy hooks are bound once,
        and the counters are locals. It makes every transition of
        :class:`~repro.protocol.coherence.CoherenceEngine` (the
        step-at-a-time reference the conformance suite checks it
        against), raises the same :class:`ProtocolError`s, and calls
        the policy hooks in the same order: premature, then verified
        correct, then invalidated, then the requester's ``on_access``.
        """
        ops, nodes, ids, addresses = compile_stream(events).columns()
        policies = [self._factory(node) for node in range(num_nodes)]
        if num_nodes < 1:
            raise ProtocolError(
                f"need at least one node, got {num_nodes}"
            )
        report = AccuracyReport(workload=name, policy=policies[0].name)
        on_access = [p.on_access for p in policies]
        on_invalidation = [p.on_invalidation for p in policies]
        on_verified = [p.on_verified_correct for p in policies]
        on_premature = [p.on_premature for p in policies]
        on_sync = [p.on_sync for p in policies]

        shift = self._block_shift
        downgrade = self._variant is ProtocolVariant.DOWNGRADE
        # cache states (also the verification-mask values)
        SHARED, EXCLUSIVE = CacheState.SHARED, CacheState.EXCLUSIVE
        # directory states; an entry is [state, owner, version,
        # sharers, verification mask (node -> state it dropped)]
        IDLE, D_SHARED, D_EXCLUSIVE = (
            DirState.IDLE, DirState.SHARED, DirState.EXCLUSIVE
        )
        UPGRADE, WRITE_FETCH, READ_FETCH = (
            MissKind.UPGRADE, MissKind.WRITE_FETCH, MissKind.READ_FETCH
        )
        caches: List[Dict[int, CacheState]] = [
            {} for _ in range(num_nodes)
        ]
        entries: Dict[int, list] = {}
        accesses = misses = self_invalidations = 0
        predicted = not_predicted = mispredicted = 0

        for op, node, ident, address in zip(ops, nodes, ids, addresses):
            cache = caches[node]
            if op > OP_WRITE:
                # DSI's bulk trigger: drop whichever candidates are held
                fire = on_sync[node](sync_kind(op), ident)
            else:
                is_write = op == OP_WRITE
                block = address >> shift
                ent = entries.get(block)
                if ent is None:
                    ent = entries[block] = [IDLE, None, 0, set(), {}]
                mask = ent[4]
                if mask:
                    # Section-4 verification precedes the access
                    if node in mask:
                        del mask[node]
                        mispredicted += 1
                        on_premature[node](block)
                    if mask:
                        confirmed = [
                            other for other, held in mask.items()
                            if held is EXCLUSIVE or is_write
                        ]
                        for other in confirmed:
                            del mask[other]
                            predicted += 1
                            on_verified[other](block)

                accesses += 1
                cached = cache.get(block)
                if cached is EXCLUSIVE or (
                    cached is SHARED and not is_write
                ):
                    decision = on_access[node](
                        block, ident, False, None, None
                    )
                else:
                    misses += 1
                    if cached is SHARED:
                        kind = UPGRADE
                    elif is_write:
                        kind = WRITE_FETCH
                    else:
                        kind = READ_FETCH
                    state, owner, version, sharers = ent[:4]
                    if state is D_EXCLUSIVE:
                        if owner is None:
                            raise ProtocolError(
                                f"EXCLUSIVE block {block:#x} w/o owner"
                            )
                        if is_write or not downgrade:
                            # invalidate the writer's copy
                            if owner != node:
                                _evict(caches, owner, block)
                                not_predicted += 1
                                on_invalidation[owner](block)
                        else:
                            # the writer writes back, keeps a read copy
                            caches[owner][block] = SHARED
                            sharers.add(owner)
                        ent[1] = None
                    elif state is D_SHARED and is_write:
                        for victim in sorted(sharers):
                            if victim != node:
                                _evict(caches, victim, block)
                                not_predicted += 1
                                on_invalidation[victim](block)
                    if is_write:
                        ent[0] = D_EXCLUSIVE
                        ent[1] = node
                        ent[2] = version + 1
                        sharers.clear()
                        cache[block] = EXCLUSIVE
                    else:
                        ent[0] = D_SHARED
                        sharers.add(node)
                        cache[block] = SHARED
                    decision = on_access[node](
                        block, ident, cached is None, kind, version
                    )
                if not decision.self_invalidate:
                    continue
                fire = (block,)

            # self-invalidation: write back, drop, enter the mask
            for block in fire:
                held = cache.pop(block, None)
                if held is None:
                    if op > OP_WRITE:
                        continue  # a candidate this node no longer holds
                    raise ProtocolError(
                        f"node {node} self-invalidating uncached block "
                        f"{block:#x}"
                    )
                ent = entries[block]
                ent[4][node] = held
                if held is EXCLUSIVE:
                    if ent[1] != node:
                        raise ProtocolError(
                            f"cache/directory owner mismatch on block "
                            f"{block:#x}"
                        )
                    ent[1] = None
                    ent[0] = IDLE
                else:
                    ent[3].discard(node)
                    if not ent[3]:
                        ent[0] = IDLE
                self_invalidations += 1

        report.predicted = predicted
        report.not_predicted = not_predicted
        report.mispredicted = mispredicted
        report.unresolved = sum(len(ent[4]) for ent in entries.values())
        report.accesses = accesses
        report.coherence_misses = misses
        report.self_invalidations = self_invalidations
        report.storage = self._collect_storage(policies)
        return report

    @staticmethod
    def _collect_storage(policies: List[SelfInvalidationPolicy]):
        reports: List[StorageReport] = [
            p.storage_report() for p in policies
        ]
        if all(r.tracked_blocks == 0 for r in reports):
            return None
        return aggregate_reports(reports)

    # ------------------------------------------------------------------

    def run_oracle(
        self, programs: ProgramSet, stream=None
    ) -> AccuracyReport:
        """Two-pass oracle run: profile last touches, then fire exactly
        at them (the upper-bound ablation; see repro.core.oracle).

        Both passes replay one compiled stream: ``stream`` when given
        (the interleaving of ``programs`` at this quantum), else the
        programs are interleaved once here.
        """
        if stream is None:
            stream = compile_stream(
                interleave(programs, quantum=self._quantum)
            )
        ordinals = compute_last_touch_ordinals(
            stream,
            programs.num_nodes,
            block_shift=self._block_shift,
            variant=self._variant,
        )
        oracle_sim = AccuracySimulator(
            lambda node: OraclePolicy(ordinals[node]),
            quantum=self._quantum,
            block_shift=self._block_shift,
            variant=self._variant,
        )
        return oracle_sim.run_stream(
            stream, programs.num_nodes, name=programs.name
        )


def _evict(caches: List[Dict[int, CacheState]], node: int, block: int):
    """Remove ``node``'s copy of ``block`` (an external invalidation)."""
    if caches[node].pop(block, None) is None:
        raise ProtocolError(
            f"evicting block {block:#x} not cached by node {node}"
        )
