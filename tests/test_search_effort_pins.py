"""Pinned search-effort counters.

The twin and fingerprint checks compare decisions and attempt counts,
never how much search work a decision took.  These tests replay one
fixed radix-16 trace under Jigsaw and LaaS, fault-free and with node
faults, and hold the search-effort counters to constants recorded
before the shape x pod prefilter matrix, the per-search three-level
pod columns and the forward-scan backfill window: a speed-up of the
search must neither skip nor add pruning, candidate, backtracking or
memo work.  A change that alters these counters on purpose must say
why and re-record them.
"""

import random

import pytest

from repro.core.registry import make_allocator
from repro.sched.job import Job
from repro.sched.resilience import FaultTimeline
from repro.sched.simulator import Simulator
from repro.topology.fattree import FatTree

FIELDS = (
    "alloc_attempts", "pods_pruned", "candidate_hits",
    "backtrack_steps", "xpass_memo_hits",
)

PINNED = {
    ("jigsaw", False): (1688, 31978, 1052, 2014, 3),
    ("jigsaw", True): (2378, 43850, 1285, 2500, 2),
    ("laas", False): (1254, 24324, 1096, 2048, 5),
    ("laas", True): (2622, 39844, 1369, 2738, 9),
}


def _jobs(n=300, seed=16):
    """Busy mixed trace: mostly single-pod jobs plus some that span
    pods, arriving faster than the cluster drains them."""
    rng = random.Random(seed)
    jobs, arrival = [], 0.0
    for i in range(n):
        arrival += rng.expovariate(1 / 8)
        if rng.random() < 0.7:
            size = rng.randint(1, 64)
        else:
            size = rng.randint(65, 400)
        jobs.append(Job(
            id=i, size=size, runtime=rng.uniform(50.0, 1500.0),
            arrival=arrival,
        ))
    return jobs


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("scheme", ["jigsaw", "laas"])
def test_search_effort_counters_pinned(scheme, faulted):
    tree = FatTree.from_radix(16)
    kwargs = {}
    if faulted:
        kwargs = dict(
            fault_timeline=FaultTimeline.synthetic(
                tree.num_nodes, mttf=200_000.0, mttr=5_000.0,
                horizon=8_000.0, seed=2,
            ),
            fault_victim_policy="requeue-full",
        )
    result = Simulator(make_allocator(scheme, tree), **kwargs).run(
        _jobs(), "pins"
    )
    assert len(result.jobs) == 300
    assert (result.faults_injected > 0) == faulted
    got = tuple(getattr(result, field) for field in FIELDS)
    assert dict(zip(FIELDS, got)) == dict(
        zip(FIELDS, PINNED[(scheme, faulted)])
    )
