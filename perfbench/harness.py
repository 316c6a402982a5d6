"""Set-up, measured phase, correctness gate and teardown of one stage.

Everything here drives the library through its public API:
``Runner``, ``ResultCache``, ``TraceCache``/``cached_build``,
``FleetService`` and ``GridClient``.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import pickle
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fleet import FleetService
from repro.fleet.policy import QueueDepthPolicy
from repro.runner import (
    GridClient,
    JobSpec,
    PolicySpec,
    ProtocolError,
    RemoteExecutionError,
    ResultCache,
    Runner,
)
from repro.workloads import TraceCache, cached_build, get_workload

from perfbench.plan import Round

#: the fixed fleet: one local worker, never scaled
FLEET_WORKERS = 1
#: worker heartbeats (which carry its execute-time histogram) every
#: ttl/4 seconds
LEASE_TTL = 2.0
SCALE_INTERVAL = 0.2
WORKER_CONNECT_TIMEOUT = 60.0
GRID_TIMEOUT = 60.0
#: begin_shutdown + stop + join must finish within this, or the run fails
TEARDOWN_BOUND = 20.0


@dataclass
class Setup:
    seconds: float
    cache: ResultCache
    traces: TraceCache
    runner: Optional[Runner] = None
    fleet: Optional[FleetService] = None
    client: Optional[GridClient] = None
    worker_ready_s: float = 0.0


@dataclass
class Outcome:
    results: Dict[JobSpec, Any]
    latencies: List[float]
    wall: float
    attempted: int
    failed: int
    cached_at_submit: int = 0
    window: tuple = (0.0, 0.0)
    problems: List[str] = field(default_factory=list)


def set_up(rnd: Round, root: Path, t0: float) -> Setup:
    """Fresh caches under ``root``, the runner or the fleet, and for
    ``timing-warmtrace`` the trace-cache pre-fill. ``seconds`` runs
    from ``t0`` (taken just before this process was started)."""
    cache = ResultCache(root / "results")
    traces = TraceCache(root / "traces")
    if rnd.workload == "timing-warmtrace":
        for app, gen_seed in dict.fromkeys(rnd.applications):
            cached_build(get_workload(app, rnd.size, seed=gen_seed), traces)
    setup = Setup(0.0, cache, traces)
    if rnd.workload == "serve-campaign":
        fleet = FleetService(
            cache,
            trace_cache=traces,
            policy=QueueDepthPolicy(
                min_workers=FLEET_WORKERS,
                max_workers=FLEET_WORKERS,
                cooldown=0.0,
            ),
            lease_ttl=LEASE_TTL,
            scale_interval=SCALE_INTERVAL,
        )
        setup.fleet = fleet
        started = time.perf_counter()
        address = fleet.start()
        deadline = time.monotonic() + WORKER_CONNECT_TIMEOUT
        while not fleet.broker.stats.workers:
            if time.monotonic() > deadline:
                raise RuntimeError("fleet worker never connected")
            time.sleep(0.005)
        setup.worker_ready_s = time.perf_counter() - started
        setup.client = GridClient(address, name="perfbench")
    else:
        setup.runner = Runner(cache=cache, trace_cache=traces)
    setup.seconds = time.monotonic() - t0
    return setup


def measure(rnd: Round, setup: Setup) -> Outcome:
    """The closed loop: submit each grid, wait for all of its results,
    then submit the next."""
    if setup.client is not None:
        return _measure_serve(rnd, setup.client)
    results: Dict[JobSpec, Any] = {}
    latencies: List[float] = []
    failed = 0
    start = time.perf_counter()
    for grid in rnd.grids:
        began = time.perf_counter()
        try:
            results.update(setup.runner.run(grid))
        except Exception:  # a failed spec is counted, never a number
            traceback.print_exc(file=sys.stderr)
            failed += len(grid)
        latencies.append(time.perf_counter() - began)
    end = time.perf_counter()
    return Outcome(
        results, latencies, end - start, len(rnd.unique_specs()), failed,
        window=(start, end),
    )


def _measure_serve(rnd: Round, client: GridClient) -> Outcome:
    results: Dict[JobSpec, Any] = {}
    latencies: List[float] = []
    failed = cached = 0
    attempted = sum(len(set(grid)) for grid in rnd.grids)
    start = time.perf_counter()
    for number, grid in enumerate(rnd.grids):
        began = time.perf_counter()
        got: Dict[JobSpec, Any] = {}
        try:
            cached += int(client.submit(grid).get("cached", 0))
            for spec, value in client.stream(timeout=GRID_TIMEOUT):
                got[spec] = value
        except RemoteExecutionError:
            traceback.print_exc(file=sys.stderr)
        except (ProtocolError, OSError):
            # the broker is gone: nothing later can be delivered
            traceback.print_exc(file=sys.stderr)
            failed += sum(len(set(g)) for g in rnd.grids[number:])
            break
        failed += len(set(grid) - set(got))
        results.update(got)
        latencies.append(time.perf_counter() - began)
    end = time.perf_counter()
    return Outcome(
        results, latencies, end - start, attempted, failed, cached,
        window=(start, end),
    )


def tear_down(setup: Setup) -> bool:
    """Close the client, then ``begin_shutdown``, ``stop`` and a
    bounded join of every child process. False if anything outlived
    :data:`TEARDOWN_BOUND` (it is killed)."""
    if setup.client is not None:
        setup.client.close()
    if setup.fleet is None:
        return True
    deadline = time.monotonic() + TEARDOWN_BOUND
    setup.fleet.broker.begin_shutdown()
    stopper = threading.Thread(
        target=setup.fleet.stop, name="perfbench-teardown", daemon=True
    )
    stopper.start()
    stopper.join(TEARDOWN_BOUND)
    clean = not stopper.is_alive()
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            clean = False
            proc.kill()
            proc.join(5.0)
    # the supervisor's forkserver start method leaves two helpers
    # running, the fork server and its resource tracker; stop (and reap)
    # both so the round leaves no process behind
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    return clean


# -- measurements ------------------------------------------------------

def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def process_pids() -> List[int]:
    """This process and its live children (the fleet worker)."""
    return [os.getpid()] + [
        p.pid for p in multiprocessing.active_children() if p.pid
    ]


def round_record(setup: Setup, outcome: Outcome, rss_mb: float) -> Dict:
    """What the final stage needs from one round, JSON-ready."""
    return {
        "setup_s": setup.seconds,
        "wall_s": outcome.wall,
        "specs": len(outcome.results),
        "accesses": sum(
            getattr(v, "accesses", 0) or 0 for v in outcome.results.values()
        ),
        "latencies": outcome.latencies,
        "rss_mb": rss_mb,
    }


def _round_figures(record: Dict) -> Dict[str, float]:
    latencies = record["latencies"]
    return {
        "specs_per_s": record["specs"] / record["wall_s"],
        "sim_accesses_per_s": record["accesses"] / record["wall_s"],
        "grid_p50_s": statistics.median(latencies),
        "grid_p90_s": (
            statistics.quantiles(latencies, n=10)[8]
            if len(latencies) > 1 else latencies[0]
        ),
    }


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    """Throughput and grid latency percentiles of the best round for
    each; set-up time and peak memory as medians over rounds.

    The host's own speed drifts by up to 1.7x for tens of seconds at a
    time (other tenants); a median over a few rounds inherits that
    drift, the best round is the one least disturbed.
    """
    rounds = [_round_figures(r) for r in records]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "specs_per_s": max(r["specs_per_s"] for r in rounds),
        "sim_accesses_per_s": max(r["sim_accesses_per_s"] for r in rounds),
        "grid_p50_s": min(r["grid_p50_s"] for r in rounds),
        "grid_p90_s": min(r["grid_p90_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }


def round_medians(records: List[Dict]) -> Dict[str, float]:
    """The per-round figures as medians over rounds (printed beside
    the declared metrics)."""
    rounds = [_round_figures(r) for r in records]
    return {
        name: statistics.median(r[name] for r in rounds)
        for name in rounds[0]
    }


_LTP = PolicySpec(name="ltp")
_BASE = PolicySpec(name="base")


def simulated(results: Dict[JobSpec, Any]) -> Dict[str, List[float]]:
    """Paper-comparable samples present in ``results``: per-block LTP
    predicted fractions (Figure 6) and LTP speedups over base (Figure
    9), one per application that has them."""
    fractions = [
        value.predicted_fraction
        for spec, value in results.items()
        if spec.kind == "accuracy" and spec.policy == _LTP
        and spec.variant == "invalidate"
    ]
    speedups = []
    for spec, value in results.items():
        if spec.kind != "timing" or spec.policy != _LTP:
            continue
        if spec.forwarding or spec.si_fire_delay or spec.variant != "invalidate":
            continue
        base = results.get(
            JobSpec(
                kind="timing", workload=spec.workload, size=spec.size,
                overrides=spec.overrides, policy=_BASE, config=spec.config,
            )
        )
        if base is not None:
            speedups.append(value.speedup_over(base))
    return {
        "ltp_predicted_frac": fractions, "ltp_speedup_geomean": speedups,
    }


def summarize_simulated(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Mean predicted fraction and geometric-mean speedup."""
    out = {}
    if samples.get("ltp_predicted_frac"):
        out["ltp_predicted_frac"] = statistics.fmean(
            samples["ltp_predicted_frac"]
        )
    if samples.get("ltp_speedup_geomean"):
        out["ltp_speedup_geomean"] = math.exp(statistics.fmean(
            math.log(s) for s in samples["ltp_speedup_geomean"]
        ))
    return out


def load_over_build(results: Dict[JobSpec, Any], traces: TraceCache) -> float:
    """Time to load each trace the round used from the trace cache,
    divided by the time to build the same trace (summed over traces;
    measured after the round, with tracing off)."""
    load = build = 0.0
    for name, size, overrides in sorted(
        {(s.workload, s.size, s.overrides) for s in results}
    ):
        workload = get_workload(name, size, **dict(overrides))
        began = time.perf_counter()
        hit, _ = traces.get(workload)
        loaded = time.perf_counter()
        workload.build()
        if hit:
            load += loaded - began
            build += time.perf_counter() - loaded
    return load / build if build else 0.0


# -- correctness gate --------------------------------------------------

def spec_key(spec: JobSpec) -> str:
    """The spec's cache key without the package-version salt, so a
    pinned digest survives a version bump."""
    return hashlib.sha256(spec.canonical().encode("utf-8")).hexdigest()


def results_digest(results: Dict[JobSpec, Any]) -> str:
    """sha256 over the sorted (spec key, pickled report) pairs."""
    pairs = sorted(
        (spec_key(spec), pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        for spec, value in results.items()
    )
    digest = hashlib.sha256()
    for key, blob in pairs:
        digest.update(key.encode("ascii"))
        digest.update(len(blob).to_bytes(8, "big"))
        digest.update(blob)
    return digest.hexdigest()


def inline_reference(specs: List[JobSpec], trace_root: Path) -> Dict:
    """The same specs resolved by the inline backend (no result
    cache), for comparison with what the serve fleet delivered."""
    return Runner(trace_cache=TraceCache(trace_root)).run(specs)


def check_digest(
    record: Path, run_key: str, digest: str, pinned: Optional[str]
) -> List[str]:
    """Compare ``digest`` with the pinned one and with the digest the
    first run of the same ``run_key`` recorded in ``record``."""
    problems = []
    if pinned is not None and digest != pinned:
        problems.append(f"digest {digest} differs from pinned {pinned}")
    try:
        seen = json.loads(record.read_text())
    except (OSError, ValueError):
        seen = {}
    first = seen.setdefault(run_key, digest)
    if first != digest:
        problems.append(
            f"digest {digest} differs from {first} of an earlier run"
        )
    else:
        tmp = record.with_name(f"{record.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, record)
    return problems
