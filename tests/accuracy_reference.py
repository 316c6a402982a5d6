"""Step-at-a-time reference for the accuracy simulator's fused loop.

:func:`reference_run_stream` drives every access through
:meth:`CoherenceEngine.access` and hands the resulting
:class:`AccessResult` to the policies one hook at a time — the logic
``AccuracySimulator.run_stream`` had before it was fused into one loop
over a compiled stream. The conformance suite and the hypothesis
property hold the two to pickle-identical reports.
"""

from repro.core.oracle import OraclePolicy, compute_last_touch_ordinals
from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import ProtocolVariant
from repro.sim import AccuracyReport, AccuracySimulator
from repro.trace.events import MemoryAccess, SyncBoundary
from repro.trace.scheduler import interleave


def reference_run_stream(
    policy_factory,
    events,
    num_nodes,
    name="trace",
    variant=ProtocolVariant.INVALIDATE,
    block_shift=5,
):
    policies = {node: policy_factory(node) for node in range(num_nodes)}
    engine = CoherenceEngine(
        num_nodes, block_shift=block_shift, variant=variant
    )
    report = AccuracyReport(
        workload=name, policy=policies[0].name if num_nodes else "none"
    )
    for ev in events:
        if isinstance(ev, MemoryAccess):
            _handle_access(ev, engine, policies, report)
        elif isinstance(ev, SyncBoundary):
            for block in policies[ev.node].on_sync(ev.kind, ev.sync_id):
                if engine.holds(ev.node, block):
                    engine.self_invalidate(ev.node, block)
                    report.self_invalidations += 1
    report.unresolved = engine.unresolved_self_invalidations()
    report.storage = AccuracySimulator._collect_storage(
        list(policies.values())
    )
    return report


def _handle_access(ev, engine, policies, report):
    res = engine.access(ev.node, ev.pc, ev.address, ev.is_write)
    report.accesses += 1
    if not res.hit:
        report.coherence_misses += 1
    # Verification outcomes precede the requester's own bookkeeping.
    if res.premature:
        report.mispredicted += 1
        policies[ev.node].on_premature(res.block)
    for node in res.verified_correct:
        report.predicted += 1
        policies[node].on_verified_correct(res.block)
    for inv in res.invalidations:
        report.not_predicted += 1
        policies[inv.node].on_invalidation(inv.block)
    decision = policies[ev.node].on_access(
        res.block, ev.pc, res.trace_start, res.miss_kind, res.version
    )
    if decision.self_invalidate:
        engine.self_invalidate(ev.node, res.block)
        report.self_invalidations += 1


def reference_run(policy_factory, programs, variant):
    """The reference loop over a freshly interleaved ``programs``."""
    return reference_run_stream(
        policy_factory, interleave(programs), programs.num_nodes,
        name=programs.name, variant=variant,
    )


def reference_run_oracle(programs, variant):
    """The two-pass oracle on the reference loop."""
    ordinals = compute_last_touch_ordinals(
        interleave(programs), programs.num_nodes, variant=variant
    )
    return reference_run(
        lambda node: OraclePolicy(ordinals[node]), programs, variant
    )
