"""Unit tests for the accuracy simulator (repro.sim.functional)."""

import pytest

from repro.core import (
    ConfidenceConfig,
    LastPCPredictor,
    NullPolicy,
    PerBlockLTP,
)
from repro.dsi import DSIPolicy
from repro.protocol.states import ProtocolVariant
from repro.sim import AccuracySimulator
from repro.workloads import get_workload
from tests.conftest import migratory_rmw, producer_consumer


class TestBasePolicy:
    def test_base_never_predicts(self, pc_workload):
        rep = AccuracySimulator(lambda n: NullPolicy()).run(pc_workload)
        assert rep.predicted == 0
        assert rep.mispredicted == 0
        assert rep.self_invalidations == 0
        assert rep.not_predicted > 0

    def test_denominator_identity(self, pc_workload):
        """predicted + not_predicted must equal the base system's
        invalidations (verified SIs replace externals one for one)."""
        base = AccuracySimulator(lambda n: NullPolicy()).run(pc_workload)
        ltp = AccuracySimulator(lambda n: PerBlockLTP()).run(pc_workload)
        assert ltp.total_invalidations == base.total_invalidations

    def test_accesses_counted(self, pc_workload):
        rep = AccuracySimulator(lambda n: NullPolicy()).run(pc_workload)
        assert rep.accesses == pc_workload.total_steps() - sum(
            1 for p in pc_workload.programs.values()
            for s in p.steps if not hasattr(s, "address")
        )


class TestLTPOnCanonicalPatterns:
    def test_producer_consumer_learned(self):
        ps = producer_consumer(iterations=40)
        rep = AccuracySimulator(lambda n: PerBlockLTP()).run(ps)
        assert rep.predicted_fraction > 0.85
        assert rep.mispredicted_fraction < 0.05

    def test_migratory_learned(self):
        ps = migratory_rmw(iterations=40)
        rep = AccuracySimulator(lambda n: PerBlockLTP()).run(ps)
        assert rep.predicted_fraction > 0.8

    def test_multi_writes_defeat_last_pc_not_ltp(self):
        ps = producer_consumer(iterations=40, writes_per_iter=1)
        # one write per iteration, unique PC: Last-PC fine
        rep = AccuracySimulator(lambda n: LastPCPredictor()).run(ps)
        assert rep.predicted_fraction > 0.85

    def test_training_period_is_not_predicted(self):
        ps = producer_consumer(iterations=6)
        rep = AccuracySimulator(
            lambda n: PerBlockLTP(
                confidence=ConfidenceConfig(initial=2, predict_threshold=3)
            )
        ).run(ps)
        # two iterations of training per (node, block) trace
        assert 0 < rep.predicted < rep.total_invalidations


class TestOracle:
    def test_oracle_predicts_everything(self, pc_workload):
        rep = AccuracySimulator(lambda n: NullPolicy()).run_oracle(
            pc_workload
        )
        assert rep.predicted_fraction == pytest.approx(1.0)
        assert rep.mispredicted == 0

    def test_oracle_on_migratory(self):
        ps = migratory_rmw(iterations=15)
        rep = AccuracySimulator(lambda n: NullPolicy()).run_oracle(ps)
        assert rep.predicted_fraction == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", list(ProtocolVariant))
    @pytest.mark.parametrize("workload", ["appbt", "em3d", "ocean"])
    def test_oracle_denominator_matches_base(self, workload, variant):
        """The oracle profiles last touches under the variant it runs
        against: a downgraded writer keeps its copy, so profiling it
        as invalidated would fire at touches the base system never
        loses and inflate the denominator."""
        ps = get_workload(workload, "tiny").build()
        sim = AccuracySimulator(lambda n: NullPolicy(), variant=variant)
        oracle = sim.run_oracle(ps)
        assert oracle.total_invalidations == sim.run(ps).total_invalidations
        assert oracle.mispredicted == 0

    def test_oracle_dominates_ltp(self, pc_workload):
        sim = AccuracySimulator(lambda n: PerBlockLTP())
        ltp = sim.run(pc_workload)
        oracle = sim.run_oracle(pc_workload)
        assert oracle.predicted_fraction >= ltp.predicted_fraction


class TestDSIIntegration:
    def test_dsi_predicts_producer_consumer(self):
        """Write-fetch producers and read-fetch consumers are both
        versioning candidates; barrier-triggered SI verifies correct."""
        ps = producer_consumer(iterations=30, num_consumers=2)
        rep = AccuracySimulator(lambda n: DSIPolicy()).run(ps)
        assert rep.predicted_fraction > 0.6

    def test_dsi_misses_migratory(self):
        """Read-modify-write token passing: every fetch upgrades, the
        migratory exclusion keeps DSI out entirely."""
        ps = migratory_rmw(iterations=30)
        rep = AccuracySimulator(lambda n: DSIPolicy()).run(ps)
        assert rep.predicted_fraction < 0.1


class TestReportRendering:
    def test_summary_contains_key_fields(self, pc_workload):
        rep = AccuracySimulator(lambda n: PerBlockLTP()).run(pc_workload)
        text = rep.summary()
        assert "producer-consumer" in text
        assert "ltp" in text
