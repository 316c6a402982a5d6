"""Metric catalog: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names; the self-test checks that the
two agree and that the printer emits each one with its unit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from perfbench.tracing import EVENT_KINDS

#: end-to-end metrics, measured with tracing off: (name, unit)
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("specs_per_s", "specs/s"),
    ("sim_accesses_per_s", "accesses/s"),
    ("grid_p50_s", "s"),
    ("grid_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics, from the traced run: (name, unit)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("trace_cache.get_s", "s"),
    ("trace_cache.put_s", "s"),
    ("trace_cache.bytes", "bytes"),
    ("trace_cache.load_over_build", "ratio"),
    ("trace.interleave_s", "s"),
    ("trace.interleaves", "count"),
    ("trace.events", "count"),
    ("trace.interleaves_per_stream", "ratio"),
    ("sim.run_stream_s", "s"),
    ("sim.accesses", "count"),
    ("protocol.coherence_misses", "count"),
    ("protocol.invalidations", "count"),
    ("core.self_invalidations", "count"),
    ("timing.run_s", "s"),
    ("timing.events", "count"),
    ("timing.events_per_s", "1/s"),
    *((f"timing.events.{kind}", "count") for kind in EVENT_KINDS),
    ("runner.execute_s", "s"),
    ("runner.requested", "count"),
    ("runner.executed", "count"),
    ("runner.overhead_s", "s"),
    ("cache.put_s", "s"),
    ("cache.put_bytes", "bytes"),
    ("store.index_record_s", "s"),
    ("store.index_rows", "count"),
    ("cache.get_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("remote.submit_s", "s"),
    ("remote.wait_s", "s"),
    ("remote.wire_bytes", "bytes"),
    ("remote.leases", "count"),
    ("remote.retries", "count"),
    ("remote.cached_at_submit", "count"),
    ("remote.idle_s", "s"),
    ("fleet.worker_ready_s", "s"),
    ("fleet.spawned", "count"),
    ("tracing.wall_s", "s"),
    ("tracing.untraced_wall_s", "s"),
    ("tracing.overhead_s", "s"),
    ("tracing.blocking_covered_frac", "ratio"),
)

#: simulated results printed beside the paper's values (informational:
#: they repeat exactly for a seed, and the digest gate already pins them)
PAPER = {
    "ltp_predicted_frac": ("ratio", 0.79, "Figure 6, per-block LTP"),
    "ltp_speedup_geomean": ("x", 1.11, "Figure 9, LTP over base"),
}


def metrics_block(
    catalog: Tuple[Tuple[str, str], ...],
    values: Dict[str, Optional[float]],
) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every catalog entry, in order.
    A missing value (an entry point that no longer exists) is ``None``."""
    return {
        name: {"value": values.get(name), "unit": unit}
        for name, unit in catalog
    }


def render(block: Dict[str, dict]) -> List[str]:
    """Human-readable lines, one metric each."""
    lines = []
    for name, item in block.items():
        value = item["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<34} {shown:>14} {item['unit']}")
    return lines
