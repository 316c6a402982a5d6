"""Unit tests for the compiled stream (repro.trace.compiled) and the
runner's one-interleave-per-workload memo."""

import dataclasses
import pickle
from array import array

import pytest

import repro.runner.runner as runner_module
import repro.sim.functional as functional_module
from repro.analysis.sharing import census
from repro.experiments import EXPERIMENTS
from repro.runner.runner import execute_spec
from repro.trace.compiled import (
    OP_READ,
    OP_WRITE,
    CompiledStream,
    compile_stream,
    sync_kind,
)
from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind
from repro.trace.scheduler import interleave
from repro.workloads import get_workload
from tests.conftest import producer_consumer


def _fields(ev):
    if isinstance(ev, MemoryAccess):
        return ("A", ev.node, ev.pc, ev.address, ev.is_write)
    return ("S", ev.node, ev.kind, ev.sync_id)


class TestCompiledStream:
    def test_round_trips_every_event_but_work(self):
        ps = get_workload("raytrace", "tiny").build()
        compiled = compile_stream(interleave(ps))
        original = [_fields(ev) for ev in interleave(ps)]
        assert [_fields(ev) for ev in compiled] == original
        assert len(compiled) == len(original)
        # iterable more than once, yielding fresh event objects
        assert [_fields(ev) for ev in compiled] == original

    def test_every_sync_kind_survives(self):
        events = [
            SyncBoundary(1, kind, 7 + i) for i, kind in enumerate(SyncKind)
        ]
        assert list(compile_stream(events)) == events

    def test_columns_are_flat_arrays(self):
        events = [
            MemoryAccess(2, 0x40, 0x1000, False, work=9),
            MemoryAccess(3, 0x44, 0x1020, True),
            SyncBoundary(2, SyncKind.LOCK_RELEASE, 5),
        ]
        ops, nodes, ids, addresses = compile_stream(events).columns()
        assert list(ops[:2]) == [OP_READ, OP_WRITE]
        assert sync_kind(ops[2]) is SyncKind.LOCK_RELEASE
        assert list(nodes) == [2, 3, 2]
        assert list(ids) == [0x40, 0x44, 5]
        assert list(addresses) == [0x1000, 0x1020, 0]
        assert all(
            isinstance(column, array)
            for column in (ops, nodes, ids, addresses)
        )

    def test_compiling_a_compiled_stream_is_free(self):
        compiled = compile_stream(interleave(producer_consumer(4)))
        assert compile_stream(compiled) is compiled

    def test_foreign_events_are_dropped(self):
        events = [MemoryAccess(0, 1, 2, True), "not an event"]
        assert len(compile_stream(events)) == 1

    def test_census_is_unchanged(self):
        ps = get_workload("moldyn", "tiny").build()
        assert pickle.dumps(census(compile_stream(interleave(ps)))) == \
            pickle.dumps(census(interleave(ps)))


@pytest.fixture
def fresh_memos():
    runner_module._PROGRAMS.clear()
    runner_module._STREAMS.clear()
    yield
    runner_module._PROGRAMS.clear()
    runner_module._STREAMS.clear()


def _stream_specs(app, seed=7):
    """run-all's census, oracle and accuracy specs for one app, all on
    one generator seed (which folds the stability experiment's seed
    sweep into the plain LTP spec)."""
    specs = []
    for module in EXPERIMENTS.values():
        specs.extend(module.jobs(size="tiny", workloads=[app]))
    return [
        s for s in dict.fromkeys(
            dataclasses.replace(s, overrides=(("seed", seed),))
            for s in specs
        )
        if s.kind != "timing"
    ]


class TestOneInterleavePerWorkload:
    def test_run_all_grid_interleaves_each_application_once(
        self, fresh_memos, monkeypatch
    ):
        calls = []

        def counting(original):
            def wrapper(programs, *args, **kwargs):
                calls.append(programs.name)
                return original(programs, *args, **kwargs)
            return wrapper

        for module in (runner_module, functional_module):
            monkeypatch.setattr(
                module, "interleave", counting(module.interleave)
            )
        for app in ("appbt", "em3d"):
            specs = _stream_specs(app)
            assert {s.kind for s in specs} == {
                "accuracy", "oracle", "census"
            }
            assert len(specs) == 16
            for spec in specs:
                execute_spec(spec)
        assert calls == ["appbt", "em3d"]

    def test_stream_follows_cleared_programs(self, fresh_memos):
        spec = _stream_specs("em3d")[0]
        programs = runner_module._programs_for(spec)
        first = runner_module._stream_for(spec, programs)
        assert runner_module._stream_for(spec, programs) is first
        runner_module._PROGRAMS.clear()
        rebuilt = runner_module._programs_for(spec)
        second = runner_module._stream_for(spec, rebuilt)
        assert second is not first
        assert [
            (owner, stream)
            for owner, _, stream in runner_module._STREAMS.values()
        ] == [(rebuilt, second)]

    def test_stream_follows_a_replaced_interleaver(
        self, fresh_memos, monkeypatch
    ):
        spec = _stream_specs("em3d")[0]
        programs = runner_module._programs_for(spec)
        first = runner_module._stream_for(spec, programs)
        calls = []

        def traced(programs, *args, **kwargs):
            calls.append(programs.name)
            return interleave(programs, *args, **kwargs)

        monkeypatch.setattr(runner_module, "interleave", traced)
        second = runner_module._stream_for(spec, programs)
        assert second is not first and calls == ["em3d"]
        assert runner_module._stream_for(spec, programs) is second

    def test_stream_follows_replaced_programs(self, fresh_memos):
        """A remote worker installs a shipped ProgramSet under the
        same key: the stream of the replaced one must not be served."""
        em3d = _stream_specs("em3d")[0]
        tomcatv = _stream_specs("tomcatv")[0]
        old = runner_module._programs_for(em3d)
        runner_module._stream_for(em3d, old)
        runner_module._stream_for(
            tomcatv, runner_module._programs_for(tomcatv)
        )
        key = runner_module._programs_key(em3d)
        shipped = pickle.loads(pickle.dumps(old))
        runner_module._PROGRAMS[key] = shipped
        stream = runner_module._stream_for(em3d, shipped)
        assert runner_module._STREAMS[key, 1][::2] == (shipped, stream)
        assert len(runner_module._STREAMS) == 2
        assert isinstance(stream, CompiledStream)
