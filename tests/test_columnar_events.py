"""Grouped release vs one release per completion.

The event drain (``_RunState.drain``) applies events one at a time but
returns each round's completed allocations through one grouped
``Allocator.release_many``.  The grouping must change nothing: these
tests rerun each configuration with ``release_many`` patched to call
``release`` once per id, and hold the two runs to identical placements,
area accumulators, histogram counts and allocator counters.  Property
tests audit ``release_many`` against sequential ``release`` over random
occupancy states (the full incremental-index state must match).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import Allocator
from repro.core.registry import make_allocator
from repro.obs.sampler import TimeSeriesSampler
from repro.sched.job import Job
from repro.sched.log import ScheduleLog
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree, LinkId
from repro.topology.state import AllocationError, ClusterState

SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
QUEUE_ORDERS = ("fifo", "sjf", "smallest", "largest")
STEP_MODES = (None, 300.0)  # event-driven and batch-step

#: every SimResult field the grouping must leave unchanged (the
#: wall-clock ``sched_seconds`` is the one field left out)
RESULT_FIELDS = (
    "makespan", "busy_area", "demand_area", "total_busy_area",
    "alloc_attempts", "unscheduled", "cache_hits", "cache_misses",
    "pods_pruned", "candidate_hits", "memo_hits", "xpass_memo_hits",
    "xpass_memo_epoch_flushes", "xpass_memo_replayed_steps",
    "backtrack_steps", "queue_prefiltered", "size_cut_skips",
    "pass_vector_rounds", "faults_injected", "faults_repaired",
    "resubmissions", "wasted_node_seconds", "degraded_node_seconds",
    "scheduling_rounds",
)


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


def _release_per_id(self, job_ids):
    for job_id in job_ids:
        self.release(job_id)


def _run(scheme, jobs, per_id=False, **sim_kwargs):
    """One radix-8 run; ``per_id=True`` replaces the grouped release
    with one ``release`` per id.  Returns (simulator, result, number of
    ``release_many`` calls that grouped two or more jobs)."""
    groups = []
    orig = Allocator.release_many

    def recording(self, job_ids):
        ids = list(job_ids)
        if len(ids) > 1:
            groups.append(len(ids))
        (_release_per_id if per_id else orig)(self, ids)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Allocator, "release_many", recording)
        sim = Simulator(
            make_allocator(scheme, FatTree.from_radix(8)), **sim_kwargs
        )
        result = sim.run(jobs, "grouped")
    return sim, result, len(groups)


def _assert_grouping_invariant(scheme, jobs=None, **sim_kwargs):
    """Run grouped and per-id release; assert identical decisions,
    metrics and counters.  Returns the grouped run's result and how
    many grouped calls it made."""
    jobs = _jobs() if jobs is None else jobs
    gsim, grouped, n_groups = _run(scheme, jobs, **sim_kwargs)
    psim, per_id, _ = _run(scheme, jobs, per_id=True, **sim_kwargs)
    assert [(j.job_id, j.start, j.end) for j in grouped.jobs] == [
        (j.job_id, j.start, j.end) for j in per_id.jobs
    ]
    for name in RESULT_FIELDS:
        assert getattr(grouped, name) == getattr(per_id, name), name
    assert grouped.instant.counts == per_id.instant.counts
    assert gsim.peak_queue_len == psim.peak_queue_len
    return grouped, n_groups


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("queue_order", QUEUE_ORDERS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_easy_twin(scheme, queue_order, step_interval):
    _, n_groups = _assert_grouping_invariant(
        scheme, queue_order=queue_order, step_interval=step_interval
    )
    if step_interval is not None:
        assert n_groups > 0  # batch-step rounds do group releases


@pytest.mark.parametrize("step_interval", STEP_MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_conservative_twin(scheme, step_interval):
    _assert_grouping_invariant(
        scheme, backfill_policy="conservative", step_interval=step_interval
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_faulted_twin(scheme):
    """Faulted replays, event-driven and batch-step: releases flush
    before every fault event, victims keep the per-victim path."""
    timeline = FaultTimeline.synthetic(
        128, mttf=40_000.0, mttr=4_000.0, horizon=20_000.0, seed=1
    )
    for step_interval in STEP_MODES:
        result, _ = _assert_grouping_invariant(
            scheme,
            fault_timeline=timeline,
            fault_victim_policy="requeue-remaining",
            checkpoint_interval=600.0,
            step_interval=step_interval,
        )
        assert result.faults_injected > 0  # the timeline actually fired


def test_telemetry_rides_grouped_release():
    """A sampler or an event log attached to a batch-step run changes
    neither the drain nor any decision: releases still group."""
    jobs = _jobs()
    _, plain, n_plain = _run("jigsaw", jobs, step_interval=300.0)
    assert n_plain > 0
    for sinks in (
        {"sampler": TimeSeriesSampler(600.0)},
        {"event_log": ScheduleLog()},
    ):
        _, seen, n_groups = _run("jigsaw", jobs, step_interval=300.0,
                                 **sinks)
        assert n_groups > 0, sinks
        assert [(j.job_id, j.start, j.end) for j in seen.jobs] == [
            (j.job_id, j.start, j.end) for j in plain.jobs
        ]
        assert seen.instant.counts == plain.instant.counts


def test_sampler_rows_see_released_nodes():
    """A sampler row inside a batch-step round sees every completion
    before it released: Baseline pads nothing, so with no faults each
    row's allocated nodes must equal its busy nodes exactly."""
    sampler = TimeSeriesSampler(60.0)  # several rows per 300 s round
    _, result, n_groups = _run("baseline", _jobs(), step_interval=300.0,
                               sampler=sampler)
    assert n_groups > 0
    assert len(result.samples) > 100
    assert all(row["padding_nodes"] == 0 for row in result.samples)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheme=st.sampled_from(SCHEMES),
    order=st.sampled_from(QUEUE_ORDERS),
    step_interval=st.sampled_from(STEP_MODES),
)
def test_twin_property_random_traces(seed, scheme, order, step_interval):
    """Grouped and per-id release agree on randomized traces too."""
    rng = random.Random(seed)
    jobs, arrival = [], 0.0
    for i in range(rng.randint(20, 80)):
        arrival += rng.expovariate(1 / 30)
        jobs.append(Job(
            id=i, size=rng.randint(1, 128),
            runtime=rng.uniform(1.0, 300.0), arrival=arrival,
        ))
    _assert_grouping_invariant(
        scheme, jobs, queue_order=order, step_interval=step_interval
    )


# -- release_many vs sequential release ---------------------------------

def _random_claims(state, tree, rng, max_jobs=12):
    """Claim random node sets (plus some leaf links) for a few jobs."""
    free = list(range(tree.num_nodes))
    rng.shuffle(free)
    pos = 0
    job_ids = []
    for job_id in range(rng.randint(1, max_jobs)):
        k = rng.randint(1, 10)
        if pos + k > len(free):
            break
        nodes = free[pos:pos + k]
        pos += k
        links = []
        for leaf in sorted({n // tree.m1 for n in nodes}):
            i = rng.randrange(tree.m2)
            if state.leaf_up_mask[leaf] & (1 << i):
                links.append(LinkId(leaf, i))
        state.claim(job_id, nodes, tuple(links))
        job_ids.append(job_id)
    return job_ids


def _index_snapshot(state):
    return (
        state.node_owner.tolist(),
        state.free_per_leaf.tolist(),
        state.pod_free.tolist(),
        state.full_free_leaves.tolist(),
        state._leaf_ge.tolist(),
        state._leaf_buckets,
        state.leaf_up_mask,
        state.spine_free_mask,
        state.free_nodes_total,
        sorted(state._claims),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    subset_seed=st.integers(min_value=0, max_value=100_000),
)
def test_release_many_matches_sequential_release(seed, subset_seed):
    """``release_many`` leaves every occupancy index in exactly the
    state N sequential ``release`` calls produce, and passes the full
    consistency audit."""
    tree = FatTree.from_radix(8)
    rng = random.Random(seed)
    bulk = ClusterState(tree)
    job_ids = _random_claims(bulk, tree, rng)
    seq = ClusterState(tree)
    _random_claims(seq, tree, random.Random(seed))
    victims = random.Random(subset_seed).sample(
        job_ids, random.Random(subset_seed).randint(0, len(job_ids))
    )
    recs_bulk = bulk.release_many(victims)
    recs_seq = [seq.release(v) for v in victims]
    assert [r.job_id for r in recs_bulk] == [r.job_id for r in recs_seq]
    assert [r.nodes for r in recs_bulk] == [r.nodes for r in recs_seq]
    assert _index_snapshot(bulk) == _index_snapshot(seq)
    bulk.audit()


def test_release_many_validates_before_mutating():
    tree = FatTree.from_radix(8)
    state = ClusterState(tree)
    state.claim(1, [0, 1])
    state.claim(2, [2, 3])
    before = _index_snapshot(state)
    with pytest.raises(AllocationError):
        state.release_many([1, 99])  # unknown id
    with pytest.raises(AllocationError):
        state.release_many([1, 1])  # duplicate id
    assert _index_snapshot(state) == before
    state.release_many([2, 1])
    assert state.is_idle()
    state.audit()


def test_allocator_release_many_groups_invalidation():
    """One batch release = one cache invalidation (when the cache held
    proven failures), same ``releases`` count as N scalar calls."""
    tree = FatTree.from_radix(8)
    alloc = make_allocator("jigsaw", tree)
    ids = []
    for job_id in range(1, 5):
        assert alloc.allocate(job_id, 30) is not None
        ids.append(job_id)
    # Prove a failure so the cache has something to invalidate.
    assert alloc.allocate(99, tree.num_nodes) is None
    assert alloc.feasibility_cache_size > 0
    inv_before = alloc.stats.cache_invalidations
    rel_before = alloc.stats.releases
    alloc.release_many(ids)
    assert alloc.stats.cache_invalidations == inv_before + 1
    assert alloc.stats.releases == rel_before + len(ids)
    assert alloc.feasibility_cache_size == 0
    assert alloc.state.is_idle()
