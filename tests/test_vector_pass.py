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


def _attempt_log(alloc):
    """Record the job id of every charged attempt — real searches and
    proven-failure skips alike — in the order the pass makes them."""
    log = []
    allocate, charge_skip = alloc.allocate, alloc.charge_skip

    def logged_allocate(job_id, *args, **kwargs):
        log.append(job_id)
        return allocate(job_id, *args, **kwargs)

    def logged_skip(job_id, *args, **kwargs):
        log.append(job_id)
        return charge_skip(job_id, *args, **kwargs)

    alloc.allocate = logged_allocate
    alloc.charge_skip = logged_skip
    return log


def test_window_twin_keys_and_shrinking_free_count():
    """Hand-built backfill window: a failed key's later twin is skipped,
    and a backfill start drops the free count below a later candidate's
    size, so that candidate is skipped without an attempt.

    Eight 14-node jobs leave 2 free nodes in each of the 8 pods of the
    radix-8 tree (16 free).  At t=1 the 64-node head blocks; in the
    window, job 9 (4 nodes: no pod has a free leaf) fails, its twin 10
    is skipped, job 11 (2 nodes) starts and leaves 14 free, job 12
    (15 nodes) no longer passes the free-count check, and job 13
    (1 node) starts.
    """
    jobs = [Job(id=i, size=14, runtime=1000.0) for i in range(8)]
    jobs += [
        Job(id=job_id, size=size, runtime=runtime, arrival=1.0)
        for job_id, size, runtime in (
            (8, 64, 10.0), (9, 4, 50.0), (10, 4, 50.0),
            (11, 2, 50.0), (12, 15, 50.0), (13, 1, 50.0),
        )
    ]
    runs = []
    for use_vector_pass in (True, False):
        alloc = make_allocator("jigsaw", FatTree.from_radix(8))
        log = _attempt_log(alloc)
        result = Simulator(alloc, use_vector_pass=use_vector_pass).run(jobs)
        runs.append((result, log))
    (vec, vlog), (sca, slog) = runs
    starts = {r.job_id: r.start for r in vec.jobs}
    assert starts == {r.job_id: r.start for r in sca.jobs}
    assert vec.alloc_attempts == sca.alloc_attempts
    assert vlog == slog
    # The t=1 pass: head, the failing key, then the two starts.
    assert vlog[8:12] == [8, 9, 11, 13]
    assert starts[11] == starts[13] == 1.0
    assert starts[9] == starts[10] == starts[12] == 1000.0


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
