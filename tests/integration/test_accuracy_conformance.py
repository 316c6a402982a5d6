"""Byte-identical conformance of the fused accuracy loop.

``AccuracySimulator.run_stream`` runs coherence and the policies in one
loop over a compiled stream. The step-at-a-time reference
(:mod:`tests.accuracy_reference`: :class:`CoherenceEngine` driven one
access at a time, over a fresh interleaving) is the oracle: every
accuracy and oracle spec of every experiment's grid, executed through
the runner, must pickle to the same bytes as the reference's report,
under both protocol variants.
"""

import dataclasses
import pickle

import pytest

import repro.runner.runner as runner_module
from repro.experiments import EXPERIMENTS
from repro.protocol.states import ProtocolVariant
from repro.runner.runner import execute_spec
from tests.accuracy_reference import reference_run, reference_run_oracle

#: experiments that declare accuracy or oracle specs
GRIDS = [
    name for name, module in EXPERIMENTS.items()
    if any(
        spec.kind in ("accuracy", "oracle")
        for spec in module.jobs(size="tiny")
    )
]


def _reference(spec):
    programs = runner_module._programs_for(spec)
    variant = ProtocolVariant[spec.variant.upper()]
    if spec.kind == "oracle":
        return reference_run_oracle(programs, variant)
    return reference_run(spec.policy.build, programs, variant)


def test_every_accuracy_experiment_is_covered():
    assert set(GRIDS) >= {
        "fig6", "fig7", "fig8", "table3", "ablations", "variants",
        "stability", "hybrid",
    }


@pytest.mark.parametrize("variant", [v.value for v in ProtocolVariant])
@pytest.mark.parametrize("experiment", GRIDS)
def test_grid_matches_reference(experiment, variant):
    specs = [
        dataclasses.replace(spec, variant=variant)
        for spec in EXPERIMENTS[experiment].jobs(size="tiny")
        if spec.kind in ("accuracy", "oracle")
    ]
    for spec in dict.fromkeys(specs):
        fused = pickle.dumps(execute_spec(spec))
        assert fused == pickle.dumps(_reference(spec)), spec.label()
