"""The benchmark's own tests.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

(The file name keeps it out of the repository's default test run.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.catalog import END_TO_END, PER_LAYER, metrics_block, render
from perfbench.plan import Round, application_grid, make_round
from perfbench.tracing import Recorder, Shims, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
INLINE = ("accuracy-cold", "timing-warmtrace")


@pytest.mark.parametrize("workload", INLINE + ("serve-campaign",))
def test_same_seed_same_specs(workload):
    first = make_round(workload, 7, 0)
    again = make_round(workload, 7, 0)
    assert first.grids == again.grids
    assert first.applications == again.applications
    assert first.grids


@pytest.mark.parametrize("workload", INLINE + ("serve-campaign",))
def test_other_seed_other_generator_seeds(workload):
    base = {seed for _, seed in make_round(workload, 1, 0).applications}
    for seed in range(2, 7):
        other = make_round(workload, seed, 0)
        assert not base & {s for _, s in other.applications}
    # every round draws afresh, too
    assert not base & {s for _, s in make_round(workload, 1, 1).applications}


def test_other_seed_other_applications():
    # the inline workloads keep their applications (see README.md);
    # serve-campaign draws the application of every grid
    def apps(seed):
        return [grid[0].workload for grid in make_round(
            "serve-campaign", seed, 0
        ).grids]

    assert all(apps(seed) != apps(1) for seed in range(2, 7))


def test_serve_mix_is_the_same_every_round():
    counts = set()
    for seed, number in ((1, 0), (1, 1), (2, 0)):
        rnd = make_round("serve-campaign", seed, number)
        repeats = len(rnd.grids) - len(set(rnd.grids))
        counts.add((repeats, len(rnd.unique_specs())))
        assert any(len(grid) > 1 for grid in rnd.grids)
    assert len(counts) == 1
    (repeats, _), = counts
    assert repeats / len(rnd.grids) == pytest.approx(0.25)


def _tiny_round():
    # every spec kind (accuracy, oracle, census, timing) of one
    # application, so each traced entry point is called
    specs = application_grid("em3d", "tiny", 5)
    return Round("accuracy-cold", "tiny", grids=[(s,) for s in specs])


def test_traced_reports_pickle_identically(tmp_path):
    rnd = _tiny_round()
    plain = harness.measure(rnd, harness.set_up(rnd, tmp_path / "a", 0.0))
    rec = Recorder()
    shims = Shims(rec)
    try:
        setup = harness.set_up(rnd, tmp_path / "b", 0.0)
        rec.key_of = setup.cache.key
        traced = harness.measure(rnd, setup)
    finally:
        shims.remove()
    assert not shims.missing
    assert plain.failed == traced.failed == 0
    assert set(plain.results) == set(traced.results)
    for spec, value in plain.results.items():
        assert harness.results_digest({spec: value}) == harness.results_digest(
            {spec: traced.results[spec]}
        )
    import threading

    values = layer_metrics(
        rec.spans, traced.window, threading.main_thread().ident
    )
    assert values["trace.interleaves"] > 0
    assert values["sim.accesses"] > 0
    assert values["timing.events"] > 0
    assert values["store.index_rows"] == len(rnd.grids)
    # one cache key per spec ties its spans together
    executed = [s for s in rec.spans if s.name == "runner.execute"]
    assert len({s.key for s in executed}) == len(rnd.grids)


def test_printer_emits_every_metric_with_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for catalog, listed in (
        (END_TO_END, spec["end_to_end"]), (PER_LAYER, spec["per_layer"]),
    ):
        assert [(m["name"], m["unit"]) for m in listed] == list(catalog)
        block = metrics_block(catalog, {name: 1.5 for name, _ in catalog})
        assert list(block) == [name for name, _ in catalog]
        lines = render(block)
        for (name, unit), line in zip(catalog, lines):
            assert name in line and line.endswith(unit)


def test_missing_entry_point_reads_null():
    block = metrics_block(PER_LAYER, {})
    assert all(item["value"] is None for item in block.values())
    assert "missing" in render(block)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accuracy-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
