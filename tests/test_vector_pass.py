"""Twin-driver equivalence: the vectorized scheduling pass vs its
scalar twin.

The vector pass promises *identical decisions* — every placement, every
charged allocator attempt, the waiting-queue bookkeeping — across all
five schemes, every queue order, both drive modes and faulted replay.
These tests run each configuration through both passes and hold them to
it, and a property test checks the monotone size cut directly: a size
the cut condemns must be one the allocator's real search also rejects.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_allocator
from repro.sched.job import Job
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree

SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
QUEUE_ORDERS = ("fifo", "sjf", "smallest", "largest")
STEP_MODES = (None, 300.0)  # event-driven and batch-step


def _jobs(n=250, seed=0):
    rng = random.Random(seed)
    jobs, arrival = [], 0.0
    for i in range(n):
        arrival += rng.expovariate(1 / 20)
        jobs.append(Job(
            id=i,
            size=rng.randint(1, 100),
            runtime=rng.uniform(10.0, 400.0),
            arrival=arrival,
        ))
    return jobs


def _run(scheme, use_vector_pass, **sim_kwargs):
    tree = FatTree.from_radix(8)
    sim = Simulator(
        make_allocator(scheme, tree),
        use_vector_pass=use_vector_pass,
        **sim_kwargs,
    )
    result = sim.run(_jobs(), "twin")
    return sim, result


def _assert_twin(scheme, **sim_kwargs):
    """Run the vector and scalar passes and assert identical decisions.

    Cache hit/miss counts are deliberately *not* compared: the vector
    prefilter proves (and caches) some failures the scalar path's
    budget-exhausted searches leave uncached — same decisions, same
    attempt counts, different cache bookkeeping.
    """
    vsim, vec = _run(scheme, True, **sim_kwargs)
    ssim, sca = _run(scheme, False, **sim_kwargs)
    assert [(j.job_id, j.start, j.end) for j in vec.jobs] == [
        (j.job_id, j.start, j.end) for j in sca.jobs
    ]
    assert vec.makespan == sca.makespan
    assert vec.alloc_attempts == sca.alloc_attempts
    assert vec.unscheduled == sca.unscheduled
    assert vsim.peak_queue_len == ssim.peak_queue_len
    # The vector run actually took the vector path — and only it.
    assert vec.pass_vector_rounds == vec.scheduling_rounds
    assert sca.pass_vector_rounds == 0
    assert sca.queue_prefiltered == 0
    return vec, sca


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("queue_order", QUEUE_ORDERS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_easy_twin(scheme, queue_order, step_interval):
    _assert_twin(
        scheme, queue_order=queue_order, step_interval=step_interval
    )


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_conservative_twin(scheme, step_interval):
    _assert_twin(
        scheme, backfill_policy="conservative", step_interval=step_interval
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_faulted_twin(scheme):
    timeline = FaultTimeline.synthetic(
        128, mttf=40_000.0, mttr=4_000.0, horizon=20_000.0, seed=1
    )
    vec, _ = _assert_twin(
        scheme,
        fault_timeline=timeline,
        fault_victim_policy="requeue-remaining",
        checkpoint_interval=600.0,
    )
    assert vec.faults_injected > 0  # the timeline actually fired


def test_prefilter_actually_fires():
    """On a contended trace the vector pass must skip real work: the
    prefilter counter moves and the attempts it replaces stay equal to
    the scalar run's (checked by ``_assert_twin`` elsewhere)."""
    _, vec = _run("ta", True)
    assert vec.queue_prefiltered > 0
    assert vec.size_cut_skips > 0
    assert vec.queue_prefiltered >= vec.size_cut_skips


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_size_cut_soundness(data):
    """Any size the monotone cut condemns is one the real search also
    rejects — over random occupancy states of every scheme."""
    scheme = data.draw(st.sampled_from(SCHEMES))
    tree = FatTree.from_radix(8)
    alloc = make_allocator(scheme, tree)
    jid = 0
    for _ in range(data.draw(st.integers(min_value=5, max_value=40))):
        jid += 1
        alloc.allocate(jid, data.draw(st.integers(min_value=1, max_value=40)))
    condemned = 0
    for size in range(1, tree.num_nodes + 1):
        eff = alloc.effective_size(size)
        if alloc.cut_infeasible(eff, None):
            condemned += 1
            assert not alloc.can_allocate(size), (scheme, size)
    # (can_allocate probes feed the floor, so on a crowded state the
    # sweep itself generates cut verdicts to check)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheme=st.sampled_from(SCHEMES),
    order=st.sampled_from(QUEUE_ORDERS),
)
def test_twin_property_random_traces(seed, scheme, order):
    """Vector and scalar passes agree on randomized traces too."""
    rng = random.Random(seed)
    jobs, arrival = [], 0.0
    for i in range(rng.randint(20, 80)):
        arrival += rng.expovariate(1 / 30)
        jobs.append(Job(
            id=i, size=rng.randint(1, 128),
            runtime=rng.uniform(1.0, 300.0), arrival=arrival,
        ))
    results = []
    for vec in (True, False):
        tree = FatTree.from_radix(8)
        sim = Simulator(
            make_allocator(scheme, tree),
            queue_order=order,
            use_vector_pass=vec,
        )
        results.append(sim.run(list(jobs), "prop"))
    vec_r, sca_r = results
    assert [(j.job_id, j.start, j.end) for j in vec_r.jobs] == [
        (j.job_id, j.start, j.end) for j in sca_r.jobs
    ]
    assert vec_r.alloc_attempts == sca_r.alloc_attempts
