"""Discrete-event scheduler simulator (the evaluation vehicle, section 5).

The simulator replays a job-queue trace against one allocator:

* job arrivals and completions are the events;
* scheduling is FIFO + EASY backfilling with a lookahead window
  (:mod:`repro.sched.backfill`), run after every event batch;
* jobs run for their base run time under Baseline and for their
  isolated (sped-up) run time under the low-interference schemes;
* walltime estimates are perfect (actual run times), as is conventional
  for trace replay;
* metrics are accumulated exactly as section 5 defines them
  (:mod:`repro.sched.metrics`).

The implementation is split into two layers:

* the **event core** (:mod:`repro.sched.eventcore`) holds the trace as
  a column-array job table and the four event streams (arrivals,
  completions, fault repairs, fault injections) on sorted numpy arrays,
  merged one *round* at a time;
* the **policy layer** (:class:`_RunState`, below) holds the mutable
  scheduling state of one run — queue, reservations, running set,
  areas — and applies the drained events and scheduling passes.

Two drive modes share that machinery:

* **event-driven** (``step_interval=None``, the default): every round
  covers exactly one event timestamp and a scheduling pass follows
  every event batch — the classic discrete-event replay, held
  bit-identical across refactors by ``benchmarks/_fingerprint.py``;
* **batch-step** (``step_interval=Δt``): scheduling runs on the fixed
  grid ``t0 + k·Δt`` (Firmament's ``batch_step_seconds`` shape).
  Arrivals, completions and fault events accumulate between rounds;
  each round first drains everything up to its boundary in event order,
  then runs one scheduling pass.  Jobs start only at round boundaries,
  trading a bounded start lag (≤ Δt, surfaced as the ``step_lag``
  sampler column) for far fewer scheduling passes on bursty traces —
  the fidelity/throughput trade is quantified by
  ``benchmarks/bench_batch_fidelity.py``.

Within one scheduling pass, allocation failures are memoized by
(effective size, bandwidth need): state only shrinks during a pass, so a
failed size stays failed — this makes wide backfill windows cheap
without changing any scheduling decision.  The allocator extends the
same argument *across* passes with its feasibility cache (see
:mod:`repro.core.allocator`): a failure stays proven until the next
release, so pure-arrival event batches never repeat a lost search.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import replace
from itertools import count, islice
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.allocator import Allocator, AllocatorStats
from repro.obs.sampler import simulator_row
from repro.sched.backfill import (
    Reservation,
    compute_reservation,
    may_backfill,
    reservation_from_arrays,
)
from repro.sched.eventcore import (
    COMPLETION,
    FAULT_INJECT,
    FAULT_REPAIR,
    ArrayEventQueue,
    CompletionQueue,
    EventStreams,
    JobTable,
    RunningSet,
    round_boundary,
)
from repro.sched.job import Job
from repro.sched.metrics import InstantHistogram, JobRecord, SimResult
from repro.sched.resilience import (
    VICTIM_POLICIES,
    FaultTimeline,
    ResilienceManager,
)


class Simulator:
    """Replay a trace against one allocator and measure the outcome.

    Parameters
    ----------
    allocator:
        A fresh allocator (its cluster must be idle).
    backfill_window:
        How many queued jobs past the head EASY may consider (the paper
        uses 50; 0 disables backfilling, i.e. pure FIFO).
    step_interval:
        ``None`` (default) replays event-driven: one scheduling pass per
        event batch.  A positive, finite Δt selects batch-step mode:
        scheduling rounds on the grid ``first_event + k·Δt``, with
        events accumulating between rounds (see the module docstring).
    use_vector_pass:
        ``True`` (default) runs the column-oriented scheduling pass:
        queue scans are batched over the job table's size/bandwidth
        columns, proven-infeasible candidates are skipped without a
        search (charged through ``Allocator.charge_skip`` so the
        attempt accounting is unchanged), and the backfill bookkeeping
        is vectorized.  ``False`` selects the scalar twin; both produce
        identical placements (``benchmarks/_fingerprint.py --vs-scalar``).
    use_columnar_events:
        Accepted for compatibility and ignored: every run drains its
        events through the one per-event loop (:meth:`_RunState.drain`),
        which retires each round's completions through one grouped
        :meth:`~repro.core.allocator.Allocator.release_many`.
    provenance:
        ``True`` records per-job scheduling provenance on the job-table
        columns — first-eligible time, attempt count, and every skipped
        or failed attempt broken down by reason — exported as
        ``SimResult.provenance`` (see ``docs/observability.md``).
        Strictly passive; off by default.
    """

    #: how the head's reservation evolves while it waits:
    #: ``renew`` (default) — honored until its shadow time passes, then
    #: recomputed; ``sticky`` — computed once, honored until the head
    #: starts (forces drains); ``slip`` — recomputed at every event (the
    #: shadow can slip forever under constrained allocators).
    RESERVATION_POLICIES = ("renew", "sticky", "slip")

    #: how out-of-order starts are planned: ``easy`` (single head
    #: reservation, the paper's setup) or ``conservative`` (every queued
    #: job in the window holds a reservation; nothing delays an earlier
    #: one — a classic alternative, provided as an extension)
    BACKFILL_POLICIES = ("easy", "conservative")

    #: how the waiting queue is ordered: ``fifo`` (arrival order, the
    #: paper's setup) or one of the classic priority orders, provided as
    #: extensions: ``sjf`` (shortest estimated walltime first),
    #: ``smallest``/``largest`` (by node count).  Ties fall back to
    #: enqueue order.
    QUEUE_ORDERS = ("fifo", "sjf", "smallest", "largest")

    def __init__(
        self,
        allocator: Allocator,
        backfill_window: int = 50,
        reservation_policy: str = "renew",
        backfill_policy: str = "easy",
        estimate_factor: float = 1.0,
        runtime_model=None,
        queue_order: str = "fifo",
        event_log=None,
        tracer=None,
        sampler=None,
        fault_timeline=None,
        fault_victim_policy: str = "requeue-full",
        checkpoint_interval: float = 0.0,
        step_interval: Optional[float] = None,
        use_vector_pass: bool = True,
        use_columnar_events: bool = True,
        provenance: bool = False,
    ):
        if not allocator.state.is_idle():
            raise ValueError("allocator must start idle")
        if reservation_policy not in self.RESERVATION_POLICIES:
            raise ValueError(
                f"unknown reservation policy {reservation_policy!r}; "
                f"expected one of {self.RESERVATION_POLICIES}"
            )
        if backfill_policy not in self.BACKFILL_POLICIES:
            raise ValueError(
                f"unknown backfill policy {backfill_policy!r}; "
                f"expected one of {self.BACKFILL_POLICIES}"
            )
        for name, value in (
            ("estimate_factor", estimate_factor),
            ("checkpoint_interval", checkpoint_interval),
            ("step_interval", step_interval),
        ):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if estimate_factor < 1.0:
            raise ValueError("estimate_factor must be >= 1 (users overestimate)")
        if queue_order not in self.QUEUE_ORDERS:
            raise ValueError(
                f"unknown queue order {queue_order!r}; "
                f"expected one of {self.QUEUE_ORDERS}"
            )
        if queue_order != "fifo" and backfill_policy != "easy":
            raise ValueError(
                "priority queue orders are only supported with EASY backfilling"
            )
        if fault_victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown victim policy {fault_victim_policy!r}; "
                f"expected one of {VICTIM_POLICIES}"
            )
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if step_interval is not None and step_interval <= 0:
            raise ValueError("step_interval must be positive (or None)")
        if backfill_window < 0:
            raise ValueError("backfill_window must be non-negative")
        self.allocator = allocator
        self.backfill_window = backfill_window
        self.reservation_policy = reservation_policy
        self.backfill_policy = backfill_policy
        #: walltime estimates are actual runtimes scaled by this factor
        #: (1.0 = the paper's perfect estimates)
        self.estimate_factor = estimate_factor
        #: optional contention-aware runtime model (see
        #: :mod:`repro.sched.interference`); when set, it replaces the
        #: scenario-based speed-ups entirely: runtimes are the jobs' base
        #: runtimes extended by the measured contention factor
        self.runtime_model = runtime_model
        self.queue_order = queue_order
        #: optional :class:`repro.sched.log.ScheduleLog` audit trail
        self.event_log = event_log
        #: optional :class:`repro.obs.tracer.Tracer`; when set it is also
        #: installed on the allocator so one trace covers both layers.
        #: ``None`` falls back to whatever tracer the allocator carries
        #: (the process-global one unless someone installed another).
        self.tracer = tracer
        #: optional :class:`repro.obs.sampler.TimeSeriesSampler`; when
        #: set, ``run`` fills it and the rows land in ``SimResult.samples``
        self.sampler = sampler
        #: optional fail/repair timeline consumed by the event loop (see
        #: :mod:`repro.sched.resilience`); empty = fault-free, with the
        #: guarantee that the run is event-for-event identical to one
        #: without any resilience machinery at all
        self.fault_timeline = FaultTimeline.coerce(fault_timeline)
        self.fault_victim_policy = fault_victim_policy
        self.checkpoint_interval = checkpoint_interval
        #: batch-step round length (None = event-driven)
        self.step_interval = step_interval
        #: column-oriented scheduling pass (the scalar twin stays
        #: available for invariance checks)
        self.use_vector_pass = bool(use_vector_pass)
        #: per-job provenance recording (lifecycle timeline plus skip
        #: reasons on the job-table columns; see
        #: :meth:`_RunState._provenance_rows`).  Strictly passive — the
        #: columns are write-only during the run and the recording sites
        #: never read scheduling state (``_fingerprint.py --prof``).
        self.provenance = bool(provenance)
        self.low_interference = allocator.low_interference
        #: the head job's current reservation: (job id, Reservation)
        self._sticky: Optional[Tuple[int, Reservation]] = None
        #: high-water mark of the waiting queue's entry list (live and
        #: dead entries), exposed so tests can assert it stays bounded
        self.peak_queue_len = 0

    # ------------------------------------------------------------------
    def run(self, trace, trace_name: Optional[str] = None) -> SimResult:
        """Simulate ``trace`` (a ``Trace`` or a sequence of jobs)."""
        jobs: List[Job] = list(getattr(trace, "jobs", trace))
        name = trace_name or getattr(trace, "name", "trace")
        self._sticky = None
        self.peak_queue_len = 0
        tree = self.allocator.tree
        for job in jobs:
            job.reset()
        table = JobTable(jobs)
        bad = table.first_oversized(
            self.allocator.effective_size, tree.num_nodes
        )
        if bad is not None:
            raise ValueError(
                f"job {bad.id} needs {bad.size} nodes "
                f"(effective {self.allocator.effective_size(bad.size)}) "
                f"but the cluster has {tree.num_nodes}"
            )
        # The allocator's stats are lifetime counters; the result
        # reports this run's share of them.
        stats0 = replace(self.allocator.stats)
        state = _RunState(self, table)
        state.drive()
        return state.result(name, stats0)

    # ------------------------------------------------------------------
    def _reservation(
        self, now: float, head_job: Job,
        running_pairs: List[Tuple[float, int]],
    ) -> Reservation:
        return compute_reservation(
            now,
            self.allocator.effective_size(head_job.size),
            self.allocator.free_nodes,
            list(running_pairs),
        )


class _RunState:
    """Mutable scheduling state of one ``Simulator.run``.

    The policy layer over :mod:`repro.sched.eventcore`: it owns the
    waiting queue, the running set, the area accumulators and the
    resilience bookkeeping, and exposes the event handlers
    (:meth:`try_start`, :meth:`kill_job`, …) as methods so tests can
    observe or wrap individual transitions.
    """

    def __init__(self, sim: Simulator, table: JobTable):
        self.sim = sim
        self.table = table
        self.allocator = sim.allocator
        self.tracer = (
            sim.tracer if sim.tracer is not None else sim.allocator.tracer
        )
        if sim.tracer is not None:
            sim.allocator.tracer = self.tracer
        self.sampler = sim.sampler
        self.event_log = sim.event_log

        # Event streams: arrivals and fault events are pre-known;
        # completions are discovered as jobs start.
        faults = sim.fault_timeline.faults
        self.streams = EventStreams(
            table.arrival_queue(),
            CompletionQueue(),
            repairs=ArrayEventQueue(
                [spec.end for spec in faults if spec.end is not None],
                [i for i, spec in enumerate(faults) if spec.end is not None],
            ),
            injects=ArrayEventQueue(
                [spec.start for spec in faults], list(range(len(faults)))
            ),
        )

        #: the waiting queue, one structure for every queue order:
        #: ``(key, seq, job)`` entries kept sorted by ``(key, seq)`` from
        #: ``head`` on (everything before ``head`` is dead).  An entry is
        #: live while its seq equals ``entry_seq[job.row]``; a start sets
        #: that to -1 and a requeue issues a fresh seq, so a stale entry
        #: dies where it sits and is dropped by the next compaction.
        self.queue: List[Tuple[float, int, Job]] = []
        self.head = 0
        #: per job-table row: seq of the job's live entry (-1 = none)
        self.entry_seq: List[int] = [-1] * len(table)
        #: entry seqs in enqueue order (the tie-break within a key)
        self._seq = count()
        #: live entries (jobs waiting)
        self.pending = 0
        #: running jobs as an index of job-table rows; the per-run
        #: planning columns (``est_end``, ``eff_size``) live on the
        #: table, so reservation/backfill arithmetic reads column
        #: slices instead of rebuilding arrays from a dict
        self.run_rows = RunningSet(len(table))
        self.cur_busy = 0  # requested nodes currently computing
        #: jobs completed this round whose allocations are not yet
        #: returned (see :meth:`flush_releases`)
        self.pending_release: List[Job] = []
        #: per-job provenance recording (pass-level: the recording
        #: sites are ``try_start``/``dispatch_start``)
        self.provenance = sim.provenance

        self.instant = InstantHistogram()
        self.busy_area = 0.0
        self.demand_area = 0.0
        self.total_busy_area = 0.0
        self.last_t = table.first_arrival
        self.n_system = sim.allocator.tree.num_nodes
        self.unscheduled: List[int] = []
        self.makespan_start = self.last_t
        self.last_completion = self.last_t
        #: scheduling passes run (rounds, in batch-step terms)
        self.rounds = 0
        #: simulation time of the most recent scheduling pass (feeds the
        #: ``step_lag`` sampler column)
        self.last_sched_t = self.last_t

        # Resilience machinery, engaged only for a non-empty timeline.
        # Every touch point below is gated on ``resilience is not None``
        # so a fault-free run takes exactly the historical code path —
        # the empty-timeline fingerprint check holds the gate to that.
        self.resilience: Optional[ResilienceManager] = None
        #: job id -> slot of its live completion event; a kill orphans
        #: the queued entry, which is dropped on drain by this check
        self.live_comp: Dict[int, int] = {}
        if sim.fault_timeline:
            self.resilience = ResilienceManager(
                sim.allocator,
                sim.fault_timeline,
                sim.fault_victim_policy,
                sim.checkpoint_interval,
                tracer=self.tracer,
                event_log=sim.event_log,
            )

        if self.tracer.enabled:
            self.tracer.sim_time = self.last_t
        if self.sampler is not None:
            self.sampler.reset(self.last_t)

        #: sort key of a queue entry, taken at enqueue time (FIFO is a
        #: constant key: entries then sort by seq alone)
        self.queue_key = {
            "fifo": lambda job: 0,
            "sjf": self.walltime_est,
            "smallest": lambda job: job.size,
            "largest": lambda job: -job.size,
        }[sim.queue_order]

    # -- running-set views ---------------------------------------------
    def running_pairs(self) -> List[Tuple[float, int]]:
        """``(est_end, eff_size)`` of every running job (reservation
        profiles sort these, so the index's swap-remove order is
        immaterial)."""
        table = self.table
        rows = self.run_rows.rows()
        return list(
            zip(table.est_end[rows].tolist(), table.eff_size[rows].tolist())
        )

    # -- telemetry -----------------------------------------------------
    def sample_row(self, boundary: float) -> dict:
        self.flush_releases()  # the row reads allocator state
        resilience = self.resilience
        return simulator_row(
            boundary, self.allocator, self.pending, len(self.run_rows),
            self.cur_busy,
            resilience.degraded_nodes if resilience is not None else 0,
            step_lag=max(0.0, boundary - self.last_sched_t),
        )

    # -- accounting ----------------------------------------------------
    def advance(self, t: float) -> None:
        dt = t - self.last_t
        if dt > 0:
            self.total_busy_area += self.cur_busy * dt
            if self.pending > 0:
                self.busy_area += self.cur_busy * dt
                # The under-demand capacity excludes fault-claimed
                # nodes: work that cannot be placed anywhere is not
                # scheduler loss.
                self.demand_area += self.capacity() * dt
            if self.resilience is not None:
                self.resilience.stats.degraded_node_seconds += (
                    self.resilience.degraded_nodes * dt
                )
            self.last_t = t

    def capacity(self) -> int:
        """Nodes currently in service (system size minus fault-claimed)."""
        if self.resilience is not None:
            return self.n_system - self.resilience.degraded_nodes
        return self.n_system

    def sample(self) -> None:
        if self.pending > 0:
            cap = self.capacity()
            if cap > 0:
                self.instant.add(100.0 * self.cur_busy / cap)

    # -- planning estimates --------------------------------------------
    def eff(self, job: Job) -> int:
        return self.allocator.effective_size(job.size)

    def plan_runtime(self, job: Job) -> float:
        """The base runtime every planning estimate starts from.

        Under a contention runtime model the slowdown factor is unknown
        until placement, so planning uses the unscaled base runtime;
        otherwise the scheme's scenario runtime.  ``walltime_est`` and
        the running-job completion estimates both build on this — one
        source, so the head's shadow time and ``may_backfill`` can never
        disagree about the same job.
        """
        if self.sim.runtime_model is not None:
            return job.runtime
        return job.runtime_under(self.sim.low_interference)

    def walltime_est(self, job: Job) -> float:
        """The (possibly overestimated) walltime planning uses."""
        est = self.plan_runtime(job) * self.sim.estimate_factor
        if self.resilience is not None:
            # A checkpoint-restarted job only redoes its lost work.
            est *= float(self.table.work_frac[job.row])
        return est

    # -- provenance ----------------------------------------------------
    def prov_attempt(self, job: Job, now: float) -> None:
        """Record one charged allocation attempt (real or skipped) for
        ``job`` and stamp the first time the scheduler considered it."""
        table = self.table
        row = job.row
        table.attempt_count[row] += 1
        if math.isnan(table.first_eligible[row]):
            table.first_eligible[row] = now

    def _provenance_rows(self) -> List[dict]:
        """One plain dict per trace job: lifecycle timeline plus the
        per-reason skip accounting (the ``SimResult.provenance``
        export; column catalog in ``docs/observability.md``)."""
        table = self.table
        names = {
            JobTable.PENDING: "pending", JobTable.QUEUED: "queued",
            JobTable.RUNNING: "running", JobTable.DONE: "completed",
            JobTable.UNSCHEDULED: "unscheduled",
        }
        rows = []
        for i, job in enumerate(table.jobs):
            fe = float(table.first_eligible[i])
            started = job.start >= 0
            rows.append({
                "job_id": int(table.ids[i]),
                "size": int(table.sizes[i]),
                "arrival": float(table.arrivals[i]),
                "first_eligible": None if math.isnan(fe) else fe,
                "attempts": int(table.attempt_count[i]),
                "skip_cache": int(table.skip_cache[i]),
                "skip_cut": int(table.skip_cut[i]),
                "skip_screen": int(table.skip_screen[i]),
                "skip_search": int(table.skip_search[i]),
                "skip_budget": int(table.skip_budget[i]),
                "start": job.start if started else None,
                "end": job.end if started else None,
                "wait": (job.start - job.arrival) if started else None,
                "state": names[int(table.state[i])],
            })
        return rows

    # -- transitions ---------------------------------------------------
    def try_start(self, job: Job, now: float, via: str = "fifo") -> bool:
        sim = self.sim
        if self.provenance:
            self.prov_attempt(job, now)
            # Classify a failure *before* the call: the cache verdict
            # is consumed inside allocate(), and the budget flag is
            # only fresh if the search actually ran (a free-node
            # shortfall skips it, leaving the flag stale).
            allocator = self.allocator
            allocator._check_watermark()
            was_cached = (
                (allocator.effective_size(job.size), job.bw_need)
                in allocator._failed_keys
            )
            had_room = job.size <= allocator.state.free_nodes_total
        alloc = self.allocator.allocate(job.id, job.size, bw_need=job.bw_need)
        if alloc is None:
            if self.provenance:
                table = self.table
                if was_cached:
                    table.skip_cache[job.row] += 1
                elif had_room and getattr(
                    self.allocator, "_budget_exhausted", False
                ):
                    table.skip_budget[job.row] += 1
                else:
                    table.skip_search[job.row] += 1
            return False
        tracer = self.tracer
        if tracer.enabled:
            # One dict serves both sinks: the trace's instant event
            # and the audit log's attrs column stay joinable.
            attrs = {"wait": now - job.arrival, "via": via,
                     "job": job.id, "size": job.size}
            tracer.instant("sched.start", attrs)
            if self.event_log is not None:
                self.event_log.record(
                    now, "start", job.id, job.size, via, attrs=attrs
                )
        elif self.event_log is not None:
            self.event_log.record(now, "start", job.id, job.size, via)
        job.start = now
        if sim.runtime_model is not None:
            factor = sim.runtime_model.on_start(
                alloc, self.allocator.isolating
            )
            actual = job.runtime * factor
        else:
            actual = job.runtime_under(sim.low_interference)
        if self.resilience is not None:
            actual *= float(self.table.work_frac[job.row])
        job.end = now + actual
        slot = self.streams.completions.push(job.end, job)
        if self.resilience is not None:
            self.live_comp[job.id] = slot
        # Planning sees the *estimated* completion time — the same
        # estimate ``walltime_est`` hands the backfill rules, so the
        # shadow computed from the running columns and the window
        # checks agree.
        row = job.row
        table = self.table
        table.est_end[row] = now + self.walltime_est(job)
        table.eff_size[row] = self.eff(job)
        self.run_rows.add(row)
        table.state[row] = JobTable.RUNNING
        self.entry_seq[row] = -1  # its queue entry dies in place
        self.cur_busy += job.size
        return True

    def enqueue(self, job: Job) -> None:
        seq = next(self._seq)
        self.entry_seq[job.row] = seq
        insort(self.queue, (self.queue_key(job), seq, job), lo=self.head)
        sim = self.sim
        sim.peak_queue_len = max(sim.peak_queue_len, len(self.queue))
        self.pending += 1
        self.table.state[job.row] = JobTable.QUEUED

    def kill_job(self, job: Job, now: float) -> None:
        """Drain one fault victim through the ordinary release path
        and resubmit it per the active queue order."""
        resilience = self.resilience
        elapsed = now - job.start
        planned = job.end - job.start
        saved = min(resilience.saved_work(elapsed), planned)
        self.allocator.release(job.id)
        if self.sim.runtime_model is not None:
            self.sim.runtime_model.on_release(job.id)
        self.run_rows.discard(job.row)
        self.live_comp.pop(job.id, None)
        self.cur_busy -= job.size
        resilience.stats.wasted_node_seconds += (elapsed - saved) * job.size
        resilience.stats.resubmissions += 1
        if planned > 0 and saved > 0:
            wf = self.table.work_frac
            wf[job.row] = float(wf[job.row]) * (1.0 - saved / planned)
        job.start = -1.0
        job.end = -1.0
        if self.tracer.enabled:
            attrs = {"job": job.id, "size": job.size,
                     "elapsed": elapsed, "saved": saved}
            self.tracer.instant("sched.kill", attrs)
            if self.event_log is not None:
                self.event_log.record(
                    now, "kill", job.id, job.size, attrs=attrs
                )
        elif self.event_log is not None:
            self.event_log.record(now, "kill", job.id, job.size)
        self.enqueue(job)
        if self.event_log is not None:
            self.event_log.record(now, "requeue", job.id, job.size)
        self.sample()

    # -- queue views ---------------------------------------------------
    def waiting(self):
        """The waiting jobs in queue order (live entries from ``head``
        on).  Liveness is read as the scan reaches each entry, so a job
        started mid-scan is never yielded twice — it was yielded before
        it started — and nothing is revived: compaction only runs in
        :meth:`peek_head`, never during a scan."""
        seqs = self.entry_seq
        for _, seq, job in islice(self.queue, self.head, None):
            if seqs[job.row] == seq:
                yield job

    def peek_head(self) -> Optional[Job]:
        """The first waiting job (``None`` if none): advance ``head``
        past dead entries, and rebuild the list from its live entries
        once the dead ones number at least 64 and at least the live
        ones (amortized O(1) per entry; decision-invariant)."""
        queue = self.queue
        seqs = self.entry_seq
        head = self.head
        n = len(queue)
        while head < n and seqs[queue[head][2].row] != queue[head][1]:
            head += 1
        dead = n - self.pending
        if dead >= 64 and dead >= self.pending:
            queue[:] = [e for e in queue[head:] if seqs[e[2].row] == e[1]]
            head = 0
        self.head = head
        return queue[head][2] if head < len(queue) else None

    def window_candidates(self):
        """Up to ``backfill_window`` waiting jobs after the head, in
        queue order."""
        return islice(self.waiting(), 1, 1 + self.sim.backfill_window)

    # -- scheduling passes ---------------------------------------------
    def conservative_schedule(self, now: float) -> None:
        """Every job in the window gets a reservation; a job starts
        only if its reservation is 'now' (so no earlier job is ever
        delayed by a later one)."""
        from repro.sched.profile import FOREVER, FreeProfile

        self.peek_head()  # compacts before the scan, never during it
        failed: set = set()
        profile = FreeProfile(now, self.allocator.free_nodes)
        for est_end, eff_size in self.running_pairs():
            profile.release_at(est_end, eff_size)
        for job in islice(self.waiting(), 1 + self.sim.backfill_window):
            size = self.eff(job)
            wall = self.walltime_est(job)
            start = profile.earliest_fit(size, wall)
            key = (size, job.bw_need)
            if start <= now:
                if key not in failed and self.try_start(
                    job, now, via="reserved"
                ):
                    self.pending -= 1
                    profile.reserve(now, now + wall, size)
                    self.sample()
                    continue
                # The profile says the job fits now but the allocator
                # has already proven (this pass) that it cannot place
                # the shape — fragmentation-blocked.  Reserving at
                # ``now`` anyway would book capacity the job provably
                # cannot use and push every later reservation behind
                # phantom load, so the reservation defers to the next
                # expected release, where the free pattern can change.
                failed.add(key)
                later = [t for t in profile._times if t > now]
                start = later[0] if later else FOREVER
            if start != FOREVER:
                profile.reserve(start, start + wall, size)

    def schedule(self, now: float) -> None:
        """One scheduling pass: dispatch to the policy × pass-mode
        implementation.  The vector and scalar twins of each policy
        make identical decisions (held to it by the twin-driver tests
        and ``_fingerprint.py --vs-scalar``); the vector passes replace
        provably-lost allocator searches with ``charge_skip`` and run
        the window bookkeeping on the job-table columns."""
        sim = self.sim
        if sim.backfill_policy == "conservative":
            if sim.use_vector_pass:
                self.conservative_schedule_vector(now)
            else:
                self.conservative_schedule(now)
            return
        if sim.use_vector_pass:
            self.easy_schedule_vector(now)
        else:
            self.easy_schedule(now)

    def easy_schedule(self, now: float) -> None:
        """Scalar EASY pass (the ``use_vector_pass=False`` twin)."""
        sim = self.sim
        failed: set = set()
        # FIFO phase: start from the head until something blocks.
        while self.pending:
            job = self.peek_head()
            assert job is not None
            if self.try_start(job, now):
                self.pending -= 1
                self.sample()
            else:
                failed.add((self.eff(job), job.bw_need))
                break
        if not self.pending or sim.backfill_window <= 0:
            sim._sticky = None
            return
        head_job = self.peek_head()
        assert head_job is not None
        # The head's reservation is computed when it first blocks and
        # honored according to the reservation policy.  Recomputing
        # every event ("slip") lets the shadow slip forever under
        # constrained allocators — the node-count shadow
        # underestimates when fragmentation, not node count, blocks
        # the head — which starves large jobs; never recomputing
        # ("sticky") forces full drains.  The default renews the
        # reservation only once its shadow time has passed.
        expired = (
            sim._sticky is not None
            and sim.reservation_policy == "renew"
            and now >= sim._sticky[1].shadow_time
        )
        if (
            sim._sticky is None
            or sim._sticky[0] != head_job.id
            or sim.reservation_policy == "slip"
            or expired
        ):
            sim._sticky = (
                head_job.id,
                sim._reservation(now, head_job, self.running_pairs()),
            )
        reservation = sim._sticky[1]
        tracer = self.tracer
        bspan = tracer.begin("backfill.window") if tracer.enabled else None
        scanned = 0
        started = 0
        for cand in self.window_candidates():
            scanned += 1
            key = (self.eff(cand), cand.bw_need)
            if key in failed:
                continue
            if self.eff(cand) > self.allocator.free_nodes:
                continue
            walltime = self.walltime_est(cand)
            if not may_backfill(
                cand, now, walltime, self.allocator.free_nodes,
                self.eff(cand), reservation,
            ):
                continue
            if self.try_start(cand, now, via="backfill"):
                self.pending -= 1
                started += 1
                self.sample()
            else:
                failed.add(key)
        if bspan is not None:
            bspan.set(
                window=sim.backfill_window, scanned=scanned,
                started=started, head=head_job.id,
                shadow_time=reservation.shadow_time,
            )
            tracer.end(bspan)

    # -- vectorized scheduling pass --------------------------------------
    #
    # The vector pass makes exactly the decisions the scalar pass makes.
    # Its speed comes from never *running* a search whose failure is
    # already proven: the feasibility cache, the monotone size cut and
    # the allocator's batch screen are all durable-infeasibility proofs,
    # so a candidate they condemn is skipped via ``charge_skip`` — which
    # moves the attempt/failure/cache counters exactly as the failed
    # ``allocate`` would have.  Everything else (walltime estimates,
    # shadow arithmetic, reservation profiles) is the same float/int
    # arithmetic lifted onto the job-table columns.

    def dispatch_start(
        self, job: Job, now: float, via: str, key, screened: bool = False
    ) -> bool:
        """``try_start`` with proven-failure short-circuits.

        Checks, in order: the allocator's feasibility cache, the
        monotone size cut, then the caller's precomputed batch-screen
        verdict (one batch call covers a whole window; head dispatches
        skip the screen — a head fails at most once per pass and that
        failure is durably cached).  Each is a durable proof that the
        search would fail, so the skip is charged like the failed
        ``allocate`` and the verdict is identical — only the lost
        search is saved.
        """
        alloc = self.allocator
        if key in alloc._failed_keys:
            if self.provenance:
                self.prov_attempt(job, now)
                self.table.skip_cache[job.row] += 1
            alloc.charge_skip(job.id, job.size, job.bw_need, "cache")
            return False
        if alloc.cut_infeasible(key[0], key[1]):
            if self.provenance:
                self.prov_attempt(job, now)
                self.table.skip_cut[job.row] += 1
            alloc.charge_skip(job.id, job.size, job.bw_need, "cut")
            return False
        if screened:
            if self.provenance:
                self.prov_attempt(job, now)
                self.table.skip_screen[job.row] += 1
            alloc.charge_skip(job.id, job.size, job.bw_need, "screen")
            return False
        return self.try_start(job, now, via=via)

    def walltimes_vec(self, rows: np.ndarray) -> np.ndarray:
        """``walltime_est`` over job-table rows — the same float ops
        elementwise, so each entry is bit-identical to the scalar
        estimate."""
        sim = self.sim
        table = self.table
        if sim.runtime_model is None and sim.low_interference:
            plan = table.runtimes[rows] / (1.0 + table.speedups[rows])
        else:
            plan = table.runtimes[rows]
        est = plan * sim.estimate_factor
        if self.resilience is not None:
            est = est * table.work_frac[rows]
        return est

    def reservation_vec(self, now: float, head_job: Job) -> Reservation:
        """The head's reservation straight from the running columns
        (bit-identical to ``Simulator._reservation``)."""
        table = self.table
        rows = self.run_rows.rows()
        return reservation_from_arrays(
            now,
            self.eff(head_job),
            self.allocator.free_nodes,
            table.est_end[rows],
            table.eff_size[rows],
        )

    def easy_schedule_vector(self, now: float) -> None:
        """Column-oriented EASY pass — identical decisions to
        :meth:`easy_schedule`.

        The FIFO phase is the same head loop with proven failures
        short-circuited.  The backfill window is materialized once
        (safe: the queue cannot change mid-pass), its effective sizes,
        walltimes, shadow checks and batch screen are evaluated as
        columns, and one forward scan then dispatches every candidate
        still eligible under the *current* free count and failed-key
        set — the scalar scan's order and checks, so the sequence of
        charged allocator events, and hence every placement, is the
        same (see :meth:`_backfill_window_vector`).
        """
        sim = self.sim
        alloc = self.allocator
        alloc.stats.pass_vector_rounds += 1
        failed: set = set()
        while self.pending:
            job = self.peek_head()
            assert job is not None
            key = (self.eff(job), job.bw_need)
            if self.dispatch_start(job, now, "fifo", key):
                self.pending -= 1
                self.sample()
            else:
                failed.add(key)
                break
        if not self.pending or sim.backfill_window <= 0:
            sim._sticky = None
            return
        head_job = self.peek_head()
        assert head_job is not None
        # Reservation policy: same logic as the scalar pass (see the
        # comment there); only the shadow arithmetic is vectorized.
        expired = (
            sim._sticky is not None
            and sim.reservation_policy == "renew"
            and now >= sim._sticky[1].shadow_time
        )
        if (
            sim._sticky is None
            or sim._sticky[0] != head_job.id
            or sim.reservation_policy == "slip"
            or expired
        ):
            sim._sticky = (head_job.id, self.reservation_vec(now, head_job))
        reservation = sim._sticky[1]
        tracer = self.tracer
        bspan = tracer.begin("backfill.window") if tracer.enabled else None
        cands = list(self.window_candidates())
        started = 0
        if cands:
            started = self._backfill_window_vector(
                now, cands, reservation, failed
            )
        if bspan is not None:
            bspan.set(
                window=sim.backfill_window, scanned=len(cands),
                started=started, head=head_job.id,
                shadow_time=reservation.shadow_time,
            )
            tracer.end(bspan)

    def _backfill_window_vector(
        self, now: float, cands: List[Job], reservation: Reservation,
        failed: set,
    ) -> int:
        """Scan a materialized backfill window in one forward pass;
        returns how many candidates started.

        The static part of eligibility (the shadow test and the batch
        screen) is computed as columns up front.  The dynamic part only
        shrinks during a pass: free nodes only go down and ``failed``
        only gains keys.  So once candidate ``i`` is dispatched, no
        candidate before it can become eligible again, and a single
        forward scan that re-checks ``key in failed`` and the live free
        count per candidate dispatches exactly what the scalar scan
        does, in the same order.  ``failed`` is the per-key kill
        switch: one failure skips every later twin of its
        ``(eff, bw)`` key, as in the scalar twin.
        """
        alloc = self.allocator
        state = alloc.state
        table = self.table
        n = len(cands)
        rows = np.fromiter((j.row for j in cands), np.int64, n)
        effs = alloc.effective_sizes(table.sizes[rows])
        walls = self.walltimes_vec(rows)
        # may_backfill, decomposed: given eff <= free (checked live in
        # the loop), the job may start iff it finishes before the
        # shadow time or fits in the reservation's spare nodes.
        ok_static = ((now + walls) <= reservation.shadow_time) | (
            effs <= reservation.spare_nodes
        )
        # One batch screen for the whole window: sound because free
        # capacity only shrinks during a pass, so infeasible-now stays
        # infeasible at any later dispatch within the pass.
        screen = alloc.batch_screen(effs)
        screened = (
            np.zeros(n, bool) if screen is None else np.asarray(screen, bool)
        )
        started = 0
        for cand, eff, ok, scr in zip(
            cands, effs.tolist(), ok_static.tolist(), screened.tolist()
        ):
            if not ok:
                continue
            key = (eff, cand.bw_need)
            if key in failed or eff > state.free_nodes_total:
                continue
            if self.dispatch_start(cand, now, "backfill", key, scr):
                self.pending -= 1
                started += 1
                self.sample()
            else:
                failed.add(key)
        return started

    def conservative_schedule_vector(self, now: float) -> None:
        """Column-oriented conservative pass — identical decisions to
        :meth:`conservative_schedule`: same profile, same reservations,
        same start order; the per-candidate ``earliest_fit`` runs as
        one cumsum sweep and proven-lost searches are charged skips."""
        from repro.sched.profile import FOREVER, FreeProfile

        alloc = self.allocator
        alloc.stats.pass_vector_rounds += 1
        self.peek_head()  # compacts before the scan, never during it
        failed: set = set()
        profile = FreeProfile(now, alloc.free_nodes)
        for est_end, eff_size in self.running_pairs():
            profile.release_at(est_end, eff_size)
        # Materialize the scan window (the queue cannot change mid-pass;
        # jobs started by this pass are exactly the ones the scalar loop
        # would have already visited).
        cands = list(islice(self.waiting(), 1 + self.sim.backfill_window))
        if not cands:
            return
        n = len(cands)
        table = self.table
        rows = np.fromiter((j.row for j in cands), np.int64, n)
        effs = alloc.effective_sizes(table.sizes[rows])
        walls = self.walltimes_vec(rows)
        screen = alloc.batch_screen(effs)
        for i, job in enumerate(cands):
            size = int(effs[i])
            wall = float(walls[i])
            start = profile.earliest_fit_vec(size, wall)
            key = (size, job.bw_need)
            if start <= now:
                if key not in failed and self.dispatch_start(
                    job, now, "reserved", key,
                    bool(screen[i]) if screen is not None else False,
                ):
                    self.pending -= 1
                    profile.reserve(now, now + wall, size)
                    self.sample()
                    continue
                # Fragmentation-blocked (see the scalar twin): defer
                # the reservation to the next expected release.
                failed.add(key)
                later = [t for t in profile._times if t > now]
                start = later[0] if later else FOREVER
            if start != FOREVER:
                profile.reserve(start, start + wall, size)

    # -- event drain ---------------------------------------------------
    def drain(
        self, times: np.ndarray, kinds: np.ndarray, payloads: np.ndarray
    ) -> Tuple[int, int]:
        """Apply one round's events in ``(time, kind, payload)`` order;
        returns (arrivals, completions).

        Clock, areas, histogram and telemetry advance event by event.
        Only the allocator release is deferred: a completion lists its
        job on :attr:`pending_release`, and :meth:`flush_releases`
        returns the list in one grouped call before anything reads
        allocator state again — a fault event, a sampler row, or the
        scheduling pass after the round.  No handler in between reads
        that state, so every decision, area and count is what a
        release per completion would give.
        """
        streams = self.streams
        tracer = self.tracer
        sampler = self.sampler
        table = self.table
        resilience = self.resilience
        arrivals = 0
        completions = 0
        for t, kind, payload in zip(
            times.tolist(), kinds.tolist(), payloads.tolist()
        ):
            if sampler is not None:
                # Boundaries before t see the state as of entering
                # them: sample *before* applying the event.
                sampler.advance_to(t, self.sample_row)
            if tracer.enabled:
                tracer.sim_time = t
            self.advance(t)
            if kind == FAULT_REPAIR:
                self.flush_releases()
                resilience.repair(payload, t)
            elif kind == FAULT_INJECT:
                # Victims drain through the ordinary release path
                # before the injector claims the hardware.
                self.flush_releases()
                for victim_id in resilience.victims(payload):
                    self.kill_job(
                        table.jobs[table.row_of[victim_id]], t
                    )
                resilience.inject(payload, t)
            elif kind == COMPLETION:
                job = streams.completions.job(payload)
                if resilience is not None:
                    if self.live_comp.get(job.id) != payload:
                        continue  # orphaned by a kill
                    self.live_comp.pop(job.id)
                self.pending_release.append(job)
                self.run_rows.discard(job.row)
                self.cur_busy -= job.size
                table.state[job.row] = JobTable.DONE
                self.last_completion = t
                completions += 1
                if tracer.enabled:
                    attrs = {"job": job.id, "size": job.size}
                    tracer.instant("sched.complete", attrs)
                    if self.event_log is not None:
                        self.event_log.record(
                            t, "complete", job.id, job.size, attrs=attrs
                        )
                elif self.event_log is not None:
                    self.event_log.record(t, "complete", job.id, job.size)
                self.sample()
            else:  # ARRIVAL — payload is the job-table row
                job = table.jobs[payload]
                arrivals += 1
                if self.event_log is not None:
                    self.event_log.record(t, "arrive", job.id, job.size)
                self.enqueue(job)
        self.flush_releases()
        return arrivals, completions

    def flush_releases(self) -> None:
        """Return every pending completion's allocation: one grouped
        :meth:`~repro.core.allocator.Allocator.release_many` (one
        occupancy-index update, one feasibility-cache invalidation),
        or a plain ``release`` for a single job."""
        jobs = self.pending_release
        if not jobs:
            return
        if len(jobs) == 1:
            self.allocator.release(jobs[0].id)
        else:
            self.allocator.release_many([job.id for job in jobs])
        rm = self.sim.runtime_model
        if rm is not None:
            for job in jobs:
                rm.on_release(job.id)
        self.pending_release = []

    # -- drive loop ----------------------------------------------------
    def drive(self) -> None:
        """Run rounds until every stream is drained.

        Each round covers ``(previous boundary, round_t]``: drain the
        round's events in global ``(time, kind, seq)`` order (advancing
        the clock and areas event by event), then run one scheduling
        pass at the boundary.  Event-driven mode is the degenerate case
        ``round_t = next event time`` — one timestamp per round, a pass
        after every event batch, bit-identical to the historical loop.
        """
        sim = self.sim
        step = sim.step_interval
        streams = self.streams
        tracer = self.tracer
        sampler = self.sampler
        table = self.table
        t0 = self.last_t
        round_idx = 0
        while True:
            first = streams.next_time()
            if first == float("inf"):
                break
            if step is None:
                round_t = first
            else:
                round_t = round_boundary(t0, first, step)
            rspan = (
                tracer.begin("sched.round")
                if step is not None and tracer.enabled
                else None
            )
            times, kinds, payloads = streams.take_round(round_t)
            arrivals, completions = self.drain(times, kinds, payloads)
            # The scheduling pass runs at the round boundary (in event
            # mode the boundary *is* the batch timestamp, so these
            # advances are no-ops).
            if sampler is not None:
                sampler.advance_to(round_t, self.sample_row)
            if tracer.enabled:
                tracer.sim_time = round_t
            self.advance(round_t)
            span = tracer.begin("sched.pass") if tracer.enabled else None
            queue_before = self.pending
            self.schedule(round_t)
            self.rounds += 1
            self.last_sched_t = round_t
            if span is not None:
                span.set(
                    arrivals=arrivals, completions=completions,
                    queue_before=queue_before, queue_after=self.pending,
                    started=queue_before - self.pending,
                    running=len(self.run_rows),
                    free_nodes=self.allocator.free_nodes,
                )
                tracer.end(span)
            if rspan is not None:
                rspan.set(
                    round=round_idx, step=step, drained=len(times),
                    arrivals=arrivals, completions=completions,
                    lag=round_t - first, started=queue_before - self.pending,
                )
                tracer.end(rspan)
            round_idx += 1
            if self.pending and not len(self.run_rows) and streams.empty():
                # Nothing can ever start these jobs (should not happen
                # for valid traces; recorded for failure-injection tests).
                for job in self.waiting():
                    self.unscheduled.append(job.id)
                    table.state[job.row] = JobTable.UNSCHEDULED
                    self.entry_seq[job.row] = -1
                    if self.event_log is not None:
                        self.event_log.record(
                            round_t, "unscheduled", job.id, job.size
                        )
                    self.pending -= 1
                break

        if sampler is not None:
            sampler.finish(self.last_t, self.sample_row)

    # -- result --------------------------------------------------------
    def result(self, name: str, stats0: AllocatorStats) -> SimResult:
        """This run's outcome; allocator counters are reported as the
        change since ``stats0`` (the stats at the start of the run)."""
        sim = self.sim
        resilience = self.resilience
        stats = self.allocator.stats

        def delta(field: str):
            return getattr(stats, field) - getattr(stats0, field)

        completed = [
            JobRecord(j.id, j.size, j.arrival, j.start, j.end)
            for j in self.table.jobs
            if j.end >= 0
        ]
        return SimResult(
            scheme=self.allocator.name,
            trace_name=name,
            system_nodes=self.n_system,
            jobs=completed,
            makespan=self.last_completion - self.makespan_start,
            busy_area=self.busy_area,
            demand_area=self.demand_area,
            total_busy_area=self.total_busy_area,
            instant=self.instant,
            sched_seconds=delta("alloc_seconds"),
            alloc_attempts=delta("attempts"),
            unscheduled=self.unscheduled,
            cache_hits=delta("cache_hits"),
            cache_misses=delta("cache_misses"),
            pods_pruned=delta("pods_pruned"),
            candidate_hits=delta("candidate_hits"),
            memo_hits=delta("memo_hits"),
            xpass_memo_hits=delta("xpass_memo_hits"),
            xpass_memo_epoch_flushes=delta("xpass_memo_epoch_flushes"),
            xpass_memo_replayed_steps=delta("xpass_memo_replayed_steps"),
            backtrack_steps=delta("backtrack_steps"),
            queue_prefiltered=delta("queue_prefiltered"),
            size_cut_skips=delta("size_cut_skips"),
            pass_vector_rounds=delta("pass_vector_rounds"),
            samples=(
                list(self.sampler.rows) if self.sampler is not None else []
            ),
            faults_injected=(
                resilience.stats.injected if resilience is not None else 0
            ),
            faults_repaired=(
                resilience.stats.repaired if resilience is not None else 0
            ),
            resubmissions=(
                resilience.stats.resubmissions
                if resilience is not None else 0
            ),
            wasted_node_seconds=(
                resilience.stats.wasted_node_seconds
                if resilience is not None else 0.0
            ),
            degraded_node_seconds=(
                resilience.stats.degraded_node_seconds
                if resilience is not None else 0.0
            ),
            scheduling_rounds=self.rounds,
            step_interval=sim.step_interval,
            provenance=(
                self._provenance_rows() if self.provenance else []
            ),
        )
