"""Seeded input generation for the three benchmark workloads.

Everything a run executes comes from :func:`make_round`: the benchmark
seed derives each application's generator ``seed`` override (and, for
``serve-campaign``, picks the application and campaign point of every
grid), so the program only ever receives generated
:class:`~repro.runner.JobSpec` values. The same ``(workload, seed,
round number)`` always yields the same round.

Inline workloads are built from ``run-all``'s grid: the union of every
experiment module's ``jobs()`` for one application, with the seed
override applied to every spec and duplicates collapsed (the four
stability seeds fold into the plain LTP spec, leaving 16 accuracy,
oracle and census specs and 9 timing specs per application at size
``small``).

A run is a sequence of rounds, each executed cold in its own process.
The inline workloads run the same applications in every round and the
seed draws their generator seeds afresh per round, which reshapes
every trace without changing how much work a round does: one
application's accuracy grid at size ``small`` takes from 2.4 s (dsmc)
to 14.5 s (raytrace) on the 2-CPU reference host, so drawing the
applications themselves would let the draw, not the code, set the
numbers. ``serve-campaign`` draws the application of every grid.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments import EXPERIMENTS
from repro.runner import JobSpec, PolicySpec, accuracy_job, timing_job
from repro.workloads import WORKLOAD_NAMES

#: applications of every inline round. Round cost at size ``small`` on
#: the 2-CPU host: accuracy grids of appbt and dsmc 3.1 s and 2.4 s;
#: timing grids of barnes and raytrace 2.0 s and 2.5 s (raytrace is the
#: application whose lock spins depend on contention).
APPLICATIONS: Dict[str, Tuple[str, ...]] = {
    "accuracy-cold": ("appbt", "dsmc"),
    "timing-warmtrace": ("barnes", "raytrace"),
}

#: nominal seconds of one round on the 2-CPU reference host;
#: ``seconds`` sets the number of rounds
ROUND_SECONDS = {
    "accuracy-cold": 5.5,
    "timing-warmtrace": 4.6,
    "serve-campaign": 5.5,
}

INLINE_SIZE = "small"
SERVE_SIZE = "tiny"

#: serve-campaign grids per round: repeats of an earlier grid (answered
#: at submit without execution), whole experiment slices, and single
#: campaign points. Fixed counts, in seeded order, so every round
#: carries the same mix.
SERVE_REVISITS = 15
SERVE_SLICES = 7
SERVE_POINTS = 38

#: experiment modules whose one-application slice serves as a
#: multi-spec grid (3 specs each)
SLICE_EXPERIMENTS = ("fig6", "fig9", "hybrid")

#: the campaign point space: policies, LTP widths and fire delays
CAMPAIGN_POLICIES = ("base", "dsi", "last-pc", "ltp", "ltp-global")
CAMPAIGN_BITS = (13, 30)
CAMPAIGN_DELAYS = (0, 500, 2000)
CAMPAIGN_VARIANTS = ("invalidate", "downgrade")


@dataclass
class Round:
    """One cold round's inputs.

    ``grids`` is the ordered list of submissions: for the inline
    workloads one spec each, for ``serve-campaign`` one campaign point
    or experiment slice, or a repeat of an earlier grid.
    ``applications`` lists each application with its generator seed.
    """

    workload: str
    size: str
    grids: List[Tuple[JobSpec, ...]] = field(default_factory=list)
    applications: List[Tuple[str, int]] = field(default_factory=list)

    def unique_specs(self) -> List[JobSpec]:
        return list(dict.fromkeys(s for grid in self.grids for s in grid))


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds that fill ``seconds``."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def with_seed(spec: JobSpec, seed: int) -> JobSpec:
    """``spec`` with its generator seed override replaced."""
    return dataclasses.replace(spec, overrides=(("seed", seed),))


def application_grid(app: str, size: str, seed: int) -> List[JobSpec]:
    """``run-all``'s unique specs for one application and seed."""
    specs: List[JobSpec] = []
    for module in EXPERIMENTS.values():
        specs.extend(module.jobs(size=size, workloads=[app]))
    return list(dict.fromkeys(with_seed(s, seed) for s in specs))


def _inline_round(workload: str, seed: int, number: int) -> Round:
    keep_timing = workload == "timing-warmtrace"
    rng = _rng(workload, seed, number)
    work = Round(workload, INLINE_SIZE)
    for app in APPLICATIONS[workload]:
        gen_seed = rng.randrange(1, 2**31)
        work.applications.append((app, gen_seed))
        work.grids.extend(
            (spec,)
            for spec in application_grid(app, INLINE_SIZE, gen_seed)
            if (spec.kind == "timing") == keep_timing
        )
    return work


def _campaign_point(
    rng: random.Random, app: str, kind: str, gen_seed: int
) -> JobSpec:
    policy = rng.choice(CAMPAIGN_POLICIES)
    bits = rng.choice(CAMPAIGN_BITS) if policy != "base" else 30
    spec_policy = PolicySpec(name=policy, bits=bits)
    variant = rng.choice(CAMPAIGN_VARIANTS)
    overrides = (("seed", gen_seed),)
    if kind == "accuracy":
        return accuracy_job(
            app, SERVE_SIZE, spec_policy, variant=variant,
            overrides=overrides,
        )
    delay = rng.choice(CAMPAIGN_DELAYS) if policy != "base" else 0
    return timing_job(
        app, SERVE_SIZE, spec_policy, variant=variant,
        si_fire_delay=delay, overrides=overrides,
    )


def _cycle(rng: random.Random, items):
    """Endless seeded passes over ``items``, each in a fresh order, so
    every item recurs equally often."""
    while True:
        yield from rng.sample(items, len(items))


def _serve_round(seed: int, number: int) -> Round:
    rng = _rng("serve-campaign", seed, number)
    seeds = {app: rng.randrange(1, 2**31) for app in WORKLOAD_NAMES}
    kinds = (
        ["revisit"] * SERVE_REVISITS + ["slice"] * SERVE_SLICES
        + ["point"] * SERVE_POINTS
    )
    rng.shuffle(kinds)
    # a repeat needs an earlier grid
    first = next(i for i, kind in enumerate(kinds) if kind != "revisit")
    kinds.insert(0, kinds.pop(first))
    apps = _cycle(rng, WORKLOAD_NAMES)
    point_kinds = _cycle(rng, ("accuracy", "timing"))
    work = Round("serve-campaign", SERVE_SIZE)
    seen = set()
    for kind in kinds:
        if kind == "revisit":
            work.grids.append(rng.choice(work.grids))
            continue
        app = next(apps)
        # fresh grids share no spec with earlier ones, so repeats are
        # the only cache hits and every round resolves as many specs
        if kind == "slice":
            for _ in range(1000):
                module = EXPERIMENTS[rng.choice(SLICE_EXPERIMENTS)]
                grid = tuple(
                    with_seed(s, seeds[app])
                    for s in module.jobs(size=SERVE_SIZE, workloads=[app])
                )
                if seen.isdisjoint(grid):
                    break
                app = next(apps)
            else:
                raise ValueError("experiment slices exhausted")
        else:
            point_kind = next(point_kinds)
            for _ in range(1000):
                spec = _campaign_point(rng, app, point_kind, seeds[app])
                if spec not in seen:
                    break
            else:
                raise ValueError(f"campaign points of {app} exhausted")
            grid = (spec,)
        seen.update(grid)
        work.grids.append(grid)
    work.applications = sorted(
        {(s.workload, seeds[s.workload]) for s in work.unique_specs()}
    )
    return work


def make_round(workload: str, seed: int, number: int) -> Round:
    """Round ``number`` of a run of ``workload`` with ``seed``."""
    if workload == "serve-campaign":
        return _serve_round(seed, number)
    if workload in APPLICATIONS:
        return _inline_round(workload, seed, number)
    raise ValueError(f"unknown workload {workload!r}")
