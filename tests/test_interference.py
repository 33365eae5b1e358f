"""Contention-aware runtime model."""

import pytest

from repro.core.registry import make_allocator
from repro.sched.interference import ContentionRuntimeModel
from repro.sched.job import Job
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree
from repro.traces import synthetic_trace


@pytest.fixture
def tree():
    return FatTree.from_radix(8)


class TestModel:
    def test_isolating_allocations_always_factor_one(self, tree):
        model = ContentionRuntimeModel(tree, seed=0)
        allocator = make_allocator("jigsaw", tree)
        for jid, size in enumerate([10, 12, 8, 16, 9, 20], 1):
            alloc = allocator.allocate(jid, size)
            assert model.on_start(alloc, isolating=True) == pytest.approx(1.0)

    def test_ta_allocations_factor_one_via_dmodk(self, tree):
        model = ContentionRuntimeModel(tree, seed=0)
        allocator = make_allocator("ta", tree)
        for jid, size in enumerate([10, 12, 8, 16, 9, 20], 1):
            alloc = allocator.allocate(jid, size)
            if alloc is None:
                continue
            assert model.on_start(alloc, isolating=True) == pytest.approx(1.0)

    def test_baseline_contention_raises_factor(self, tree):
        model = ContentionRuntimeModel(
            tree, alpha=0.3, seed=0,
            mix=(("alltoall_sample", 1.0),),  # everyone communicates hard
        )
        allocator = make_allocator("baseline", tree)
        factors = []
        jid = 0
        while allocator.free_nodes >= 10:
            jid += 1
            alloc = allocator.allocate(jid, 10)
            if alloc is None:
                break
            factors.append(model.on_start(alloc, isolating=False))
        assert max(factors) > 1.0

    def test_release_clears_flows(self, tree):
        model = ContentionRuntimeModel(tree, seed=0,
                                       mix=(("shift", 1.0),))
        allocator = make_allocator("baseline", tree)
        alloc = allocator.allocate(1, 12)
        model.on_start(alloc, isolating=False)
        assert model.live_flows > 0
        model.on_release(1)
        assert model.live_flows == 0
        assert model.factor_of(1) == 1.0

    def test_quiet_jobs_cost_nothing(self, tree):
        model = ContentionRuntimeModel(tree, seed=0, mix=((None, 1.0),))
        allocator = make_allocator("baseline", tree)
        for jid in range(1, 8):
            alloc = allocator.allocate(jid, 12)
            assert model.on_start(alloc, isolating=False) == pytest.approx(1.0)
        assert model.live_flows == 0

    def test_pattern_assignment_stable(self, tree):
        a = ContentionRuntimeModel(tree, seed=3)
        b = ContentionRuntimeModel(tree, seed=3)
        for jid in range(50):
            assert a.pattern_for(jid) == b.pattern_for(jid)

    def test_validation(self, tree):
        with pytest.raises(ValueError):
            ContentionRuntimeModel(tree, alpha=-0.1)
        with pytest.raises(ValueError):
            ContentionRuntimeModel(tree, mix=(("warp", 1.0),))
        with pytest.raises(ValueError):
            ContentionRuntimeModel(tree, mix=((None, 0.0),))


class TestSimulatorIntegration:
    def test_single_job_runs_at_base_runtime(self, tree):
        model = ContentionRuntimeModel(tree, seed=0)
        sim = Simulator(make_allocator("baseline", tree), runtime_model=model)
        result = sim.run([Job(id=1, size=10, runtime=100.0)])
        assert result.jobs[0].end == pytest.approx(100.0)

    def test_speedup_scenarios_ignored_with_model(self, tree):
        model = ContentionRuntimeModel(tree, seed=0)
        job = Job(id=1, size=10, runtime=100.0, speedup=1.0)
        sim = Simulator(make_allocator("jigsaw", tree), runtime_model=model)
        result = sim.run([job])
        assert result.jobs[0].end == pytest.approx(100.0)  # not 50

    def test_derived_ordering_isolation_beats_baseline(self, tree):
        """The paper's conclusion with no assumed scenario: under derived
        contention, Jigsaw's turnaround beats Baseline's."""
        trace = synthetic_trace(6, num_jobs=400, seed=1,
                                max_size=tree.num_nodes)
        results = {}
        for scheme in ("baseline", "jigsaw"):
            model = ContentionRuntimeModel(tree, alpha=0.3, seed=0)
            sim = Simulator(make_allocator(scheme, tree), runtime_model=model)
            results[scheme] = sim.run(trace)
            # every completion returned its flows to the model
            assert not model._job_links and not model._link_flows, scheme
        assert (
            results["jigsaw"].mean_turnaround
            < results["baseline"].mean_turnaround
        )
        # and the model state drains completely
        assert not results["jigsaw"].unscheduled
