"""Property-based equivalence of the fused accuracy loop.

Hypothesis draws random (legal) small ProgramSets — plain accesses,
barriers and contended locks, the timing-core property's strategy —
and runs them under every policy and both protocol variants through
the fused ``AccuracySimulator.run_stream`` and the step-at-a-time
reference loop, asserting pickle-identical ``AccuracyReport``s; the
oracle's two passes are held to the same contract.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.states import ProtocolVariant
from repro.runner.spec import POLICY_NAMES, PolicySpec
from repro.sim import AccuracySimulator
from tests.accuracy_reference import reference_run, reference_run_oracle
from tests.property.test_engine_equivalence_props import mixed_programs

VARIANTS = st.sampled_from(list(ProtocolVariant))


@settings(max_examples=60, deadline=None)
@given(
    programs=mixed_programs(),
    policy=st.sampled_from(POLICY_NAMES),
    variant=VARIANTS,
)
def test_fused_loop_matches_reference(programs, policy, variant):
    build = PolicySpec(name=policy).build
    fused = AccuracySimulator(build, variant=variant).run(programs)
    assert pickle.dumps(fused) == pickle.dumps(
        reference_run(build, programs, variant)
    )


@settings(max_examples=30, deadline=None)
@given(programs=mixed_programs(), variant=VARIANTS)
def test_fused_oracle_matches_reference(programs, variant):
    fused = AccuracySimulator(None, variant=variant).run_oracle(programs)
    assert pickle.dumps(fused) == pickle.dumps(
        reference_run_oracle(programs, variant)
    )
