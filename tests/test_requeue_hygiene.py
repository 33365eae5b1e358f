"""Queue hygiene for fault-requeued jobs, property-style.

A ``requeue-remaining`` victim can be killed repeatedly (overlapping
faults hit it every time it restarts).  After *every* kill the run's
bookkeeping must hold:

* ``work_frac`` is monotone non-increasing per job (checkpointed work
  never un-saves itself);
* the killed job holds exactly one live queue entry — never two (its
  entry from before it started must stay dead, or backfill could offer
  a running job to the allocator twice);
* the live entries number exactly ``pending``, no job holds two, and
  the entries from ``head`` on are sorted by ``(key, seq)``.

The checks are wrapped around ``_RunState.kill_job`` and evaluated on
seeded fault timelines across all four queue orders.
"""

import pytest

from repro.core.baseline import BaselineAllocator
from repro.sched.job import Job
from repro.sched.resilience import FaultSpec, FaultTimeline
from repro.sched.simulator import Simulator, _RunState
from repro.topology.fattree import FatTree

SEEDS = (1, 2)


def _jobs(n=120):
    return [
        Job(
            id=i + 1,
            size=(i * 13) % 48 + 1,
            runtime=1500.0 + (i * 97) % 1100,
            arrival=i * 25.0,
        )
        for i in range(n)
    ]


def _live(state):
    """The live ``(key, seq, job)`` entries from ``head`` on."""
    return [
        e for e in state.queue[state.head:]
        if state.entry_seq[e[2].row] == e[1]
    ]


def _live_entries(state, job):
    """Live queue entries for ``job``."""
    return sum(1 for e in _live(state) if e[2] is job)


def _check_structures(state):
    live = _live(state)
    assert len(live) == state.pending
    ids = [e[2].id for e in live]
    assert len(ids) == len(set(ids))  # no job holds two live entries
    behind = [e[:2] for e in state.queue[state.head:]]
    assert behind == sorted(behind)


@pytest.mark.parametrize("queue_order", Simulator.QUEUE_ORDERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_requeue_hygiene_under_overlapping_faults(
    monkeypatch, queue_order, seed
):
    tree = FatTree.from_radix(8)
    timeline = FaultTimeline.synthetic(
        tree.num_nodes, mttf=3000.0, mttr=300.0, horizon=20_000.0,
        seed=seed,
    )
    kills_per_job = {}
    frac_seen = {}

    orig_kill = _RunState.kill_job

    def checked_kill(self, job, now):
        orig_kill(self, job, now)
        kills_per_job[job.id] = kills_per_job.get(job.id, 0) + 1
        frac = float(self.table.work_frac[job.row])
        assert frac <= frac_seen.get(job.id, 1.0) + 1e-12
        assert 0.0 <= frac <= 1.0
        frac_seen[job.id] = frac
        # the victim was re-enqueued: exactly one live entry
        assert _live_entries(self, job) == 1
        assert job.row not in self.run_rows
        assert job.id not in self.live_comp
        _check_structures(self)

    monkeypatch.setattr(_RunState, "kill_job", checked_kill)

    jobs = _jobs()
    sim = Simulator(
        BaselineAllocator(tree),
        queue_order=queue_order,
        fault_timeline=timeline,
        fault_victim_policy="requeue-remaining",
        checkpoint_interval=600.0,
    )
    result = sim.run(jobs)

    assert kills_per_job, "timeline never killed a job — scenario too tame"
    # The scenario must actually exercise repeat victims, or the
    # monotonicity/liveness checks above are vacuous.
    assert any(n >= 2 for n in kills_per_job.values()), (
        "no job was killed twice; strengthen the timeline"
    )
    # Every kill was resubmitted and (with repairs active) finished.
    assert result.resubmissions == sum(kills_per_job.values())
    assert len(result.jobs) == len(jobs)
    assert not result.unscheduled


def test_requeued_victim_below_dead_prefix_becomes_head(monkeypatch):
    # Under "smallest" a requeued victim's key can sort below the dead
    # entries in front of ``head``: here the victim (size 2) started
    # first, then three size-4 jobs started as heads, and a size-120
    # job waits as the blocked head.  The victim's requeued entry must
    # land at ``head`` — in front of the blocked job — not among the
    # dead entries behind it, where no scan would ever see it again.
    tree = FatTree.from_radix(8)
    victim = Job(id=1, size=2, runtime=1000.0, arrival=0.0)
    jobs = [victim] + [
        Job(id=2 + k, size=4, runtime=1000.0, arrival=10.0)
        for k in range(3)
    ] + [Job(id=9, size=120, runtime=100.0, arrival=20.0)]
    # Baseline fills an idle cluster from node 0: the victim holds it.
    timeline = FaultTimeline(
        (FaultSpec(50.0, "node", (0,), end=60.0),)
    )
    heads = []
    orig_kill = _RunState.kill_job

    def checked_kill(self, job, now):
        dead_before = [e[0] for e in self.queue[:self.head]]
        orig_kill(self, job, now)
        _check_structures(self)
        heads.append((job.id, dead_before, self.peek_head()))

    monkeypatch.setattr(_RunState, "kill_job", checked_kill)
    sim = Simulator(
        BaselineAllocator(tree),
        queue_order="smallest",
        fault_timeline=timeline,
    )
    result = sim.run(jobs)

    assert len(heads) == 1
    killed, dead_before, head = heads[0]
    assert killed == victim.id
    # the edge is real: dead entries with larger keys sat before head
    assert dead_before and max(dead_before) > victim.size
    assert head is victim
    assert result.resubmissions == 1
    assert len(result.jobs) == len(jobs)
    assert not result.unscheduled
