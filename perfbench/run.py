"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload accuracy-cold --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``accuracy-cold``, ``timing-warmtrace``, ``serve-campaign``
(see perfbench/README.md). With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric from a traced run.

A run is a chain of rounds, each in a fresh interpreter with fresh
cache directories, so every round starts cold. The benchmark
re-executes itself between rounds (``os.execv``, so at most one
benchmark process exists at any time) and carries the per-round
records forward in a state file. Each round times its own set-up from
the moment its interpreter was started.

* ``--trace 0``: as many rounds as fill ``--seconds``; throughput and
  grid latency percentiles are those of the best round for each,
  set-up time and memory are medians over rounds.
* ``--trace 1``: round 0 untraced, then round 0 again with spans
  recorded; the difference of their measured wall times is the
  tracing overhead, and their reports must be identical.

Exit status is 0 only when every spec resolved and every results
digest matched. A run outside a checkout (no ``src/repro``) exits 2
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve()
#: per-run scratch directories and the digest record live here
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("accuracy-cold", "timing-warmtrace", "serve-campaign")

DEFAULT_SEED = 1

#: per-round results digests of the default seed, round 0 first
PINNED = {
    "accuracy-cold": (
        "68ba4f519f6e5f71e357b37ee1c9b7404a94116880d16505d0b68294e026fd7f",
        "71cd0c49aa826e0d9243a3a60750dc47b5a6e926c30cf44daec27d6ce409c0ac",
        "9aa2eb5667ca4da679f33c4aec65cc4c44e70aa19e70460d1cbf0f8a98929ca2",
        "1fa1e3d210be67aa9183e78d24ca5493ca77512356fea90a3f24b85cd5ee4143",
        "8a2f437317a99db6ee8c9ab0c8e6c75a50fd4db44228492a818336824ff5872e",
    ),
    "timing-warmtrace": (
        "b08c70e7bffccd80e276271f5e5c0d57ee098c542f83cad6e1c0b90a719f24ad",
        "d0159d97c8931fd79964316749493c2199dda1c04b3ded893264308cfb8983da",
        "3e0d5c93ceb2bdad371aec157aa7e3ece5b83f5f310d963fddff2f2b912090ef",
        "afd0e96a7ca3f24920b80020600e94779c53f79c429bd09896a8686ff28daa8c",
        "515da138ced4ee11089be97f597adb94dcf82d6d4416a6bc5b00e39b183e0e80",
    ),
    "serve-campaign": (
        "984bae62305639c4f43265356ceec30e41a9a58feafa5b3871438e2247e6f05c",
        "0ba83fb4e7491d4af1d076f82b48f0a2d96efd992add7cba6d858ce15800f096",
        "931b7a4772fdd114ee59a5a68e1cb3a1ba4774af4f180536cab3fd2425578786",
        "f6b01d8e6acd43cfd3b0412cd534d2a7cecaa4f4a65b7908d8593c7ad021a2b3",
        "e7cbc9eb97988b98f57f794c03f27c4dc82708f78d534909cbc8864f48d277f5",
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the state file of a re-executed round
    parser.add_argument("--stage", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _exec_next(args, state: dict) -> None:
    """Start the next round in a fresh interpreter (same process id)."""
    state["next"] += 1
    state["t0"] = time.monotonic()
    path = Path(state["dir"]) / "state.json"
    path.write_text(json.dumps(state))
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(sys.executable, [
        sys.executable, str(RUN_PY),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--stage", str(path),
    ])


def launch(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC}; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.plan import rounds_for

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    if args.trace:
        stages = [["round", 0], ["traced", 0]]
    else:
        stages = [
            ["round", n]
            for n in range(rounds_for(args.workload, args.seconds))
        ]
    state = {
        "dir": str(run_dir), "stages": stages, "next": -1,
        "records": [], "attempted": 0, "digests": [],
        "simulated": {}, "untraced": None,
        "cpus": sorted(os.sched_getaffinity(0)),
    }
    _exec_next(args, state)
    return 1  # not reached


def run_stage(args, state: dict) -> int:
    # the fleet worker starts from a fresh interpreter (forkserver or
    # spawn), which re-imports this file as __main__ (hence the guard
    # at the bottom): hand it the package path through the environment
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path[:0] = [str(SRC), str(ROOT)]
    kind, number = state["stages"][state["next"]]
    if args.workload != "serve-campaign":
        # inline rounds take the CPUs in turn: other tenants load each
        # CPU of the host differently and for tens of seconds at a time,
        # and the fastest round should have had a chance on each
        cpus = state["cpus"]
        os.sched_setaffinity(0, {cpus[number % len(cpus)]})
    rec = shims = None
    if kind == "traced":
        from perfbench.tracing import Recorder, Shims

        rec = Recorder()
        shims = Shims(rec)
    import repro
    from perfbench import harness
    from perfbench.plan import make_round

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {repro.__file__}, not {SRC}")
    rnd = make_round(args.workload, args.seed, number)
    root = Path(state["dir"]) / f"stage{state['next']}"
    setup = harness.set_up(rnd, root, state["t0"])
    if rec is not None:
        rec.key_of = setup.cache.key
    outcome = harness.measure(rnd, setup)
    rss = harness.peak_rss_mb(harness.process_pids())
    fleet = _fleet_figures(setup, outcome) if rec is not None else {}
    if not harness.tear_down(setup):
        outcome.problems.append("fleet teardown overran its bound")
    if shims is not None:
        shims.remove()
    digest = harness.results_digest(outcome.results)
    state["attempted"] += outcome.attempted
    if kind == "traced":
        if digest != state["untraced"]["digest"]:
            outcome.problems.append(
                "traced reports differ from the untraced run's"
            )
    else:
        _gate(args, rnd, number, outcome, digest, root)
    if outcome.problems or outcome.failed:
        return _failed(state, outcome)
    if kind == "round":
        state["records"].append(harness.round_record(setup, outcome, rss))
        state["digests"].append(digest)
        for name, samples in harness.simulated(outcome.results).items():
            state["simulated"].setdefault(name, []).extend(samples)
        if args.trace:
            state["untraced"] = {"wall": outcome.wall, "digest": digest}
    if state["next"] + 1 < len(state["stages"]):
        _exec_next(args, state)
    return _report(args, state, setup, outcome, rec, shims, fleet)


def _gate(args, rnd, number, outcome, digest, root) -> None:
    """Digest checks of one untraced round: against the pinned digest
    (default seed), against every earlier run of the same round, and
    for serve-campaign against the inline backend."""
    from perfbench import harness

    pins = PINNED[args.workload] if args.seed == DEFAULT_SEED else ()
    pinned = pins[number] if number < len(pins) else None
    outcome.problems += harness.check_digest(
        WORK / "digests.json",
        f"{args.workload} seed={args.seed} round={number}",
        digest,
        pinned,
    )
    if rnd.workload == "serve-campaign" and not outcome.failed:
        reference = harness.inline_reference(
            rnd.unique_specs(), root / "traces"
        )
        if harness.results_digest(reference) != digest:
            outcome.problems.append(
                "serve results differ from the inline backend's"
            )


def _finish(state: dict, result: dict, lines) -> int:
    shutil.rmtree(state["dir"], ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _failed(state, outcome) -> int:
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": False,
        "attempted": state["attempted"],
        "failed": outcome.failed or outcome.attempted,
        "metrics": {},
    }
    return _finish(state, result, [])


def _report(args, state, setup, outcome, rec, shims, fleet) -> int:
    from perfbench import harness
    from perfbench.catalog import (
        END_TO_END, PAPER, PER_LAYER, metrics_block, render,
    )

    lines = [
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}: "
        f"{len(state['records'])} round(s), digests "
        + " ".join(d[:12] for d in state["digests"])
    ]
    simulated = harness.summarize_simulated(state["simulated"])
    for name, value in simulated.items():
        unit, paper, where = PAPER[name]
        lines.append(
            f"  simulated {name} = {value:.4f} {unit} "
            f"(paper {paper} {unit}, {where}; synthetic, unvalidated)"
        )
    if rec is not None:
        block = metrics_block(
            PER_LAYER, _layer_values(state, setup, outcome, rec, shims, fleet)
        )
    else:
        records = state["records"]
        block = metrics_block(END_TO_END, harness.end_to_end(records))
        lines.append(
            f"  {len(records)} rounds measured "
            + " ".join(f"{r['wall_s']:.2f}s" for r in records)
            + f", {len(records[0]['latencies'])} grids each; medians "
            "over rounds: "
            + ", ".join(
                f"{name} {value:.4g}"
                for name, value in harness.round_medians(records).items()
            )
        )
    lines.extend(render(block))
    result = {
        "correct": True,
        "attempted": state["attempted"],
        "failed": 0,
        "metrics": block,
    }
    return _finish(state, result, lines)


def _fleet_figures(setup, outcome) -> dict:
    """Broker and worker figures of a traced serve round, read before
    teardown. The worker's execute seconds arrive on its heartbeats,
    so wait (briefly) for one that covers every result."""
    from perfbench.harness import LEASE_TTL

    fleet = setup.fleet
    if fleet is None:
        return {}
    stats = fleet.broker.stats
    deadline = time.monotonic() + 4 * LEASE_TTL
    while True:
        executed = execute_s = 0.0
        for snap in fleet.broker.worker_snapshots().values():
            executed += sum(snap.get("counters", {}).get(
                "repro_runner_specs_executed_total", {}
            ).values())
            execute_s += sum(
                series.get("sum", 0.0)
                for series in snap.get("histograms", {}).get(
                    "repro_runner_execute_seconds", {}
                ).values()
            )
        if executed >= stats.results or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return {
        "remote.wire_bytes": stats.result_bytes + stats.trace_bytes,
        "remote.leases": stats.leases,
        "remote.retries": stats.leases - stats.results,
        "remote.cached_at_submit": outcome.cached_at_submit,
        "remote.idle_s": sum(outcome.latencies) - execute_s,
        "fleet.worker_ready_s": setup.worker_ready_s,
        "fleet.spawned": fleet.supervisor.spawned,
    }


def _layer_values(state, setup, outcome, rec, shims, fleet) -> dict:
    import threading

    from perfbench import harness
    from perfbench.tracing import layer_metrics

    values = layer_metrics(
        rec.spans, outcome.window, threading.main_thread().ident
    )
    values.update({
        "remote.wire_bytes": 0, "remote.leases": 0, "remote.retries": 0,
        "remote.cached_at_submit": 0, "remote.idle_s": 0.0,
        "fleet.worker_ready_s": 0.0, "fleet.spawned": 0,
        "runner.requested": 0, "runner.executed": 0,
    })
    values.update(fleet)
    if setup.runner is not None:
        values["runner.requested"] = setup.runner.stats.requested
        values["runner.executed"] = setup.runner.stats.executed
    values["trace_cache.load_over_build"] = harness.load_over_build(
        outcome.results, setup.traces
    )
    untraced = state["untraced"]["wall"]
    values["tracing.untraced_wall_s"] = untraced
    values["tracing.overhead_s"] = outcome.wall - untraced
    for prefix in shims.missing_prefixes():
        for name in values:
            if name.startswith(prefix):
                values[name] = None
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.stage is None:
        return launch(args)
    state = json.loads(Path(args.stage).read_text())
    try:
        return run_stage(args, state)
    except Exception:
        traceback.print_exc()
        import multiprocessing

        for proc in multiprocessing.active_children():
            proc.kill()
            proc.join(5.0)
        shutil.rmtree(state["dir"], ignore_errors=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
