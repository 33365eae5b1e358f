"""Trace-replay benchmark for the Jigsaw scheduler.

Replays a generated trace through ``Simulator.run`` (Jigsaw, EASY
backfilling with window 50, event-driven rounds) and reports throughput,
per-round latency, set-up time, memory and schedule quality; a traced
run reports per-layer spans and counters instead.  See ``METRICS.md``
beside this file for the catalogue.

Usage (from the repository root)::

    python3 perfbench/run.py                        # every workload
    python3 perfbench/run.py --workload synth28-jigsaw --seed 3 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong
decision (placement fingerprint, end-of-run invariant, allocation
condition) makes the exit code nonzero.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from measure import (
    PROBE_EVERY_S,
    PROBE_REF_S,
    SpanRecorder,
    covered,
    normalized,
    patched,
    percentile,
    require_percentile,
    time_probe,
    timing_summary,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPAN_DIR = HERE / "out"

#: distinct traces replayed per run (trace seeds ``seed*K .. seed*K+K-1``):
#: one trace's cost and schedule quality depend on its draw, and pooling
#: several keeps run-to-run spread across seeds within the bounds
TRACES_PER_RUN = 8
#: a traced run replays only the first this many traces (each twice,
#: traced and untraced), so it ends about as soon as an untraced run
TRACED_TRACES = 4
#: set-up is timed this many times per trace; ``setup_s`` is the median
SETUP_ROUNDS = 7
#: the seed whose placements must match ``reference.json``
REFERENCE_SEED = 0
SCHEME = "jigsaw"
BACKFILL_WINDOW = 50


@dataclass(frozen=True)
class Workload:
    name: str
    #: trace preset (its default job count and cluster radix apply)
    trace: str
    #: per-node mean time to failure of the synthetic fault timeline
    #: (None = fault-free); victims are requeued from scratch
    mttf: Optional[float] = None
    #: listed in BENCHMARK.json; an unlisted workload runs on request
    #: but its seed-to-seed spread is too wide for a regression bound
    listed: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        # the deepest shape search: large jobs, all queued at t=0; its
        # round-latency tail comes from each trace's last few large
        # jobs, and varies 4x from trace to trace
        Workload("synth28-jigsaw", "Synth-28", listed=False),
        # small jobs; the pass's own window scan and prefilter dominate
        Workload("thunder-jigsaw", "Thunder"),
        # Synth-28 plus node faults: the write side of the same caches
        Workload("synth28-faults", "Synth-28", mttf=80_000.0),
    )
}

#: end-to-end metric units (the ``--trace 0`` result)
E2E_UNITS = {
    "jobs_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "util_pct": "%",
    "turnaround_s": "s",
    "turnaround_large_s": "s",
    "goodput_pct": "%",
}


def _import_program():
    """Import the scheduler from this checkout's ``src`` (nothing else)."""
    # one thread: keep any BLAS pool numpy might start at a single worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


# ----------------------------------------------------------------------
# Inputs and program construction


@dataclass
class Inputs:
    tree: object
    trace: object
    timeline: object


def trace_seeds(seed: int) -> List[int]:
    return [seed * TRACES_PER_RUN + i for i in range(TRACES_PER_RUN)]


def build(wl: Workload, trace_seed: int, naive: bool = False):
    """Generate one trace (and fault timeline) and construct the program
    objects that replay it.

    Returns ``(inputs, simulator, gen_s, setup_s)``: ``gen_s`` times the
    input generation alone, ``setup_s`` everything (tree, inputs,
    allocator, simulator).  ``naive=True`` builds the scalar twins
    (naive search, scalar pass, scalar event drain) the committed
    reference was generated with.
    """
    from repro.experiments.runner import DEFAULT_JOB_COUNTS, TRACE_CLUSTER_RADIX
    from repro.sched.resilience import FaultTimeline
    from repro.topology.fattree import FatTree
    from repro.traces import synthetic_trace, thunder_like

    clock = time.perf_counter
    t0 = clock()
    tree = FatTree.from_radix(TRACE_CLUSTER_RADIX[wl.trace])
    t1 = clock()
    n = DEFAULT_JOB_COUNTS[wl.trace]
    if wl.trace == "Thunder":
        trace = thunder_like(num_jobs=n, seed=trace_seed)
    else:
        mean = int(wl.trace.split("-")[1])
        trace = synthetic_trace(
            mean, num_jobs=n, seed=trace_seed, max_size=tree.num_nodes
        )
    timeline = None
    if wl.mttf is not None:
        jobs = trace.jobs
        horizon = max(j.arrival for j in jobs) + (
            sum(j.runtime * j.size for j in jobs) / tree.num_nodes
        )
        timeline = FaultTimeline.synthetic(
            tree.num_nodes, wl.mttf, None, horizon, seed=trace_seed
        )
    t2 = clock()
    inputs = Inputs(tree, trace, timeline)
    sim = simulator(inputs, naive)
    t3 = clock()
    return inputs, sim, t2 - t1, t3 - t0


def simulator(inputs: Inputs, naive: bool = False):
    from repro.core.registry import make_allocator
    from repro.sched.simulator import Simulator

    allocator = make_allocator(SCHEME, inputs.tree)
    if naive:
        allocator.use_indexes = False
    return Simulator(
        allocator,
        backfill_window=BACKFILL_WINDOW,
        fault_timeline=inputs.timeline,
        fault_victim_policy="requeue-full",
        use_vector_pass=not naive,
        use_columnar_events=not naive,
    )


# ----------------------------------------------------------------------
# Replays


@dataclass
class Replay:
    #: which of the run's traces was replayed
    index: int
    #: host seconds inside ``Simulator.run`` (speed probes excluded)
    wall_s: float
    result: object
    #: host seconds of each scheduling round: from one ``take_round``
    #: call to the next, the last one closed by the end of ``run``
    rounds_s: List[float]
    #: placement fingerprint (see :func:`fingerprint`)
    digest: str
    #: allocations ``allocate`` returned
    placements: int
    #: failed end-of-run checks (empty when the replay was correct)
    errors: List[str]
    #: spans of a traced replay (None for an untraced one)
    spans: object = None
    #: ``wall_s`` and ``rounds_s`` at the probe's reference speed (an
    #: untraced replay only; see ``measure.normalized``)
    norm_s: float = 0.0
    rounds_norm_s: Optional[List[float]] = None


class _Stretches:
    """Round boundaries of an untraced replay, with a speed probe run at
    a boundary whenever ``PROBE_EVERY_S`` has passed since the last one.

    ``cuts[k]`` ends stretch ``k`` (the preamble of ``run`` for k = 0,
    round k - 1 after it), ``starts[k]`` begins stretch ``k``; the gap
    between ``cuts[k]`` and ``starts[k + 1]`` is a probe, outside every
    stretch.  ``probe_of[k]`` is the probe that timed stretch ``k``.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.cuts: List[float] = []
        self.probe_of: List[int] = []
        self.probes: List[float] = []
        self._probed = -math.inf

    def boundary(self, now: float) -> None:
        if self.starts:
            self.cuts.append(now)
        if now - self._probed >= PROBE_EVERY_S:
            self.probes.append(time_probe())
            now = self._probed = time.perf_counter()
        # a stretch shorter than the interval keeps the earlier probe
        self.starts.append(now)
        self.probe_of.append(len(self.probes) - 1)

    def walls(self) -> List[float]:
        return [b - a for a, b in zip(self.starts, self.cuts)]


def _light_targets(sim, stretches: _Stretches, allocs: list):
    """Thin probes for an untraced replay: round boundaries (with the
    speed probes) and the allocations ``allocate`` returns (for the
    checks and fingerprint)."""
    from repro.sched.eventcore import EventStreams

    clock = time.perf_counter

    def take_round(fn):
        def stamped(self, t):
            stretches.boundary(clock())
            return fn(self, t)
        return stamped

    def allocate(fn):
        def recorded(self, job_id, size, bw_need=None):
            alloc = fn(self, job_id, size, bw_need)
            if alloc is not None:
                allocs.append(alloc)
            return alloc
        return recorded

    return [
        (EventStreams, "take_round", take_round),
        (type(sim.allocator), "allocate", allocate),
    ]


def _traced_targets(sim, rec, allocs: list):
    """A span around every public layer boundary the replay crosses."""
    from repro.sched.eventcore import EventStreams
    from repro.sched.simulator import Simulator
    from repro.topology.faults import FaultInjector
    from repro.topology.state import ClusterState

    def keep(alloc):
        if alloc is not None:
            allocs.append(alloc)

    def span(name, on_return=None):
        return lambda fn: rec.wrap(name, fn, on_return)

    acls = type(sim.allocator)
    return [
        (Simulator, "run", span("sched.run")),
        (EventStreams, "take_round", span("sched.take_round")),
        (acls, "allocate", span("core.allocate", keep)),
        (acls, "batch_screen", span("core.batch_screen")),
        (acls, "charge_skip", span("core.charge_skip")),
        (acls, "release", span("core.release")),
        (acls, "release_many", span("core.release_many")),
        (ClusterState, "claim", span("topology.claim")),
        (ClusterState, "release", span("topology.release")),
        (ClusterState, "release_many", span("topology.release_many")),
        (FaultInjector, "inject", span("topology.fault.inject")),
        (FaultInjector, "repair", span("topology.fault.repair")),
    ]


def replay(index: int, inputs: Inputs, sim, traced: bool = False) -> Replay:
    """Run ``sim`` over the trace once, under thin probes or full spans,
    then check it.  The allocations and the allocator are dropped on
    return, so memory does not grow with the number of replays."""
    allocs: list = []
    clock = time.perf_counter
    if traced:
        rec = SpanRecorder()
        with patched(_traced_targets(sim, rec, allocs)):
            t0 = clock()
            result = sim.run(inputs.trace)
            t1 = clock()
        bounds = [
            s for n, s in zip(rec.names, rec.starts) if n == "sched.take_round"
        ] + [rec.ends[0]]
        wall_s = t1 - t0
        rounds_s = [b - a for a, b in zip(bounds, bounds[1:])]
        norm_s, rounds_norm_s = 0.0, None
    else:
        rec = None
        st = _Stretches()
        with patched(_light_targets(sim, st, allocs)):
            st.boundary(clock())
            result = sim.run(inputs.trace)
            st.cuts.append(clock())
        walls = st.walls()
        norms = normalized(walls, st.probe_of, st.probes)
        wall_s, rounds_s = sum(walls), walls[1:]
        norm_s, rounds_norm_s = sum(norms), norms[1:]
    errors = replay_errors(sim.allocator, inputs, result, allocs)
    if traced:
        errors += allocation_errors(inputs.tree, allocs)
    return Replay(
        index, wall_s, result, rounds_s, fingerprint(result, allocs),
        len(allocs), errors, rec, norm_s, rounds_norm_s,
    )


# ----------------------------------------------------------------------
# Correctness


def fingerprint(result, allocs: list) -> str:
    """sha256 of job id -> (start, end, sorted nodes) plus the
    unscheduled ids; the nodes are each job's final placement."""
    final = {a.job_id: a for a in allocs}
    rows = sorted(
        [r.job_id, r.start, r.end,
         sorted(int(n) for n in final[r.job_id].nodes)
         if r.job_id in final else None]
        for r in result.jobs
    )
    doc = {"jobs": rows, "unscheduled": sorted(result.unscheduled)}
    return hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode()
    ).hexdigest()


def replay_errors(allocator, inputs: Inputs, res, allocs: list) -> List[str]:
    """End-of-run invariants that hold for any seed."""
    errors = []
    if not allocator.state.is_idle() or allocator.allocations:
        errors.append("allocator not idle at end of run")
    done = [r.job_id for r in res.jobs]
    submitted = sorted(j.id for j in inputs.trace.jobs)
    if sorted(done + list(res.unscheduled)) != submitted:
        errors.append(
            "jobs lost or counted twice: "
            f"{len(done)} completed + {len(res.unscheduled)} unscheduled "
            f"!= {len(submitted)} submitted"
        )
    if len(allocs) != len(done) + res.resubmissions:
        errors.append(
            f"{len(allocs)} placements for {len(done)} completed jobs "
            f"and {res.resubmissions} requeues: some job started twice"
        )
    final = {a.job_id: a for a in allocs}
    for r in res.jobs:
        a = final.get(r.job_id)
        if a is None or len(a.nodes) != r.size:
            errors.append(f"job {r.job_id}: final placement missing or wrong size")
        if not r.arrival <= r.start < r.end:
            errors.append(f"job {r.job_id}: arrival/start/end out of order")
    return errors


def allocation_errors(tree, allocs: list) -> List[str]:
    """Every returned allocation must meet the paper's conditions."""
    from repro.core.conditions import check_allocation

    errors = []
    for a in allocs:
        errors.extend(f"job {a.job_id}: {v}" for v in check_allocation(tree, a))
    return errors


def reference_errors(wl: Workload, seed: int, replays: List[Replay]) -> List[str]:
    """Same trace, same placements: across the run's replays always, and
    against ``reference.json`` for the reference seed."""
    errors = []
    first: Dict[int, str] = {}
    for rep in replays:
        if first.setdefault(rep.index, rep.digest) != rep.digest:
            errors.append(f"trace {rep.index}: replays placed jobs differently")
    if seed != REFERENCE_SEED:
        return errors
    ref = json.loads(REFERENCE.read_text())
    expected = ref["workloads"].get(wl.name)
    if ref["traces_per_run"] != TRACES_PER_RUN or expected is None:
        return errors + [f"reference.json has no entry for {wl.name}"]
    for index, digest in sorted(first.items()):
        if digest != expected[index]["digest"]:
            errors.append(f"trace {index}: fingerprint differs from reference.json")
    return errors


# ----------------------------------------------------------------------
# Metrics


def end_to_end(inputs: Dict[int, Inputs], replays: List[Replay],
               setup_s: List[float]) -> Dict[str, float]:
    # Timings are at the speed probe's reference speed (the host's own
    # speed drifts), pooled over every replay of the run.
    rounds_ms = [s * 1e3 for r in replays for s in r.rounds_norm_s]

    # schedule quality: once per distinct trace, pooled over its jobs
    firsts = {}
    for r in replays:
        firsts.setdefault(r.index, r.result)
    results = [firsts[i] for i in sorted(firsts)]
    turn = [j.turnaround for res in results for j in res.jobs]
    large = [
        j.turnaround
        for i, res in sorted(firsts.items())
        for j in res.jobs
        if j.size > inputs[i].tree.m1
    ]
    wasted = sum(res.wasted_node_seconds for res in results)
    busy = sum(res.total_busy_area for res in results)
    return {
        "jobs_per_s": (
            sum(len(inputs[r.index].trace.jobs) for r in replays)
            / sum(r.norm_s for r in replays)
        ),
        "round_ms_p50": percentile(rounds_ms, 50.0),
        "round_ms_p99": require_percentile(rounds_ms, 99.0),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "util_pct": statistics.fmean(
            res.steady_state_utilization for res in results
        ),
        "turnaround_s": statistics.fmean(turn),
        "turnaround_large_s": statistics.fmean(large),
        "goodput_pct": 100.0 * (1.0 - wasted / busy),
    }


#: per-layer metric units (the ``--trace 1`` result)
LAYER_UNITS = {
    "core.allocate.calls": "count",
    "core.allocate.s": "s",
    "core.allocate.ms_p50": "ms",
    "core.allocate.ms_p99": "ms",
    "core.allocate.placed_ratio": "ratio",
    "core.allocate.round_share": "ratio",
    "core.batch_screen.calls": "count",
    "core.batch_screen.s": "s",
    "core.charge_skip.calls": "count",
    "core.charge_skip.s": "s",
    "core.release.s": "s",
    "core.backtrack_steps": "count",
    "core.cache_hit_ratio": "ratio",
    "core.xpass_memo_hits": "count",
    "core.xpass_memo_epoch_flushes": "count",
    "sched.rounds": "count",
    "sched.round_s": "s",
    "sched.pass_self_s": "s",
    "sched.pass_self.round_share": "ratio",
    "sched.take_round.s": "s",
    "sched.prefilter_ratio": "ratio",
    "sched.resubmissions": "count",
    "sched.wait_s_p50": "s",
    "sched.wait_s_p99": "s",
    "topology.claim.calls": "count",
    "topology.claim.s": "s",
    "topology.release.calls": "count",
    "topology.release.s": "s",
    "topology.release_many.calls": "count",
    "topology.fault.calls": "count",
    "topology.fault.s": "s",
    "traces.gen_s": "s",
    "bench.traced_throughput_ratio": "ratio",
}


def per_layer(traced: List[Replay], untraced: List[Replay],
              gen_s: List[float]) -> Dict[str, float]:
    """Per-layer work, busy time and ratios, averaged per traced replay.

    ``.s`` metrics are self time: a span's duration minus what its child
    spans cover, so the layers' times add up to the replay's.
    """
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    alloc_ms: List[float] = []
    round_s = pass_self = 0.0
    for rep in traced:
        rec = rep.spans
        for name, own in zip(rec.names, rec.self_times()):
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + own
        alloc_ms.extend(
            (e - s) * 1e3
            for n, s, e in zip(rec.names, rec.starts, rec.ends)
            if n == "core.allocate"
        )
        # rounds span [first take_round, end of run]; the pass's own time
        # is that minus the core/topology calls made directly from it
        lo = rec.starts[rec.names.index("sched.take_round")]
        hi = rec.ends[0]
        inner = [
            (s, e)
            for n, s, e, p in zip(rec.names, rec.starts, rec.ends, rec.parents)
            if p == 0 and not n.startswith("sched.")
        ]
        round_s += hi - lo
        pass_self += (hi - lo) - covered(inner, lo, hi)
    n = len(traced)
    results = [r.result for r in traced]

    def c(name):
        return calls.get(name, 0)

    def b(*names):
        return sum(busy.get(x, 0.0) for x in names)

    def mean_of(attr):
        return sum(getattr(res, attr) for res in results) / n

    hits = sum(res.cache_hits for res in results)
    lookups = hits + sum(res.cache_misses for res in results)
    prefiltered = sum(res.queue_prefiltered for res in results)
    waits = [res.wait_quantiles((0.5, 0.99)) for res in results]
    def jobs_per_s(reps):
        jobs = sum(len(r.result.jobs) + len(r.result.unscheduled) for r in reps)
        return jobs / sum(r.wall_s for r in reps)

    return {
        "core.allocate.calls": c("core.allocate") / n,
        "core.allocate.s": b("core.allocate") / n,
        "core.allocate.ms_p50": percentile(alloc_ms, 50.0),
        "core.allocate.ms_p99": require_percentile(alloc_ms, 99.0),
        "core.allocate.placed_ratio": (
            sum(r.placements for r in traced) / c("core.allocate")
        ),
        "core.allocate.round_share": b("core.allocate") / round_s,
        "core.batch_screen.calls": c("core.batch_screen") / n,
        "core.batch_screen.s": b("core.batch_screen") / n,
        "core.charge_skip.calls": c("core.charge_skip") / n,
        "core.charge_skip.s": b("core.charge_skip") / n,
        "core.release.s": b("core.release", "core.release_many") / n,
        "core.backtrack_steps": mean_of("backtrack_steps"),
        "core.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.xpass_memo_hits": mean_of("xpass_memo_hits"),
        "core.xpass_memo_epoch_flushes": mean_of("xpass_memo_epoch_flushes"),
        "sched.rounds": c("sched.take_round") / n,
        "sched.round_s": round_s / n,
        "sched.pass_self_s": pass_self / n,
        "sched.pass_self.round_share": pass_self / round_s,
        "sched.take_round.s": b("sched.take_round") / n,
        "sched.prefilter_ratio": prefiltered / (prefiltered + c("core.allocate")),
        "sched.resubmissions": mean_of("resubmissions"),
        "sched.wait_s_p50": statistics.fmean(w[0.5] for w in waits),
        "sched.wait_s_p99": statistics.fmean(w[0.99] for w in waits),
        "topology.claim.calls": c("topology.claim") / n,
        "topology.claim.s": b("topology.claim") / n,
        "topology.release.calls": c("topology.release") / n,
        "topology.release.s": b("topology.release", "topology.release_many") / n,
        "topology.release_many.calls": c("topology.release_many") / n,
        "topology.fault.calls": (
            c("topology.fault.inject") + c("topology.fault.repair")
        ) / n,
        "topology.fault.s": b("topology.fault.inject", "topology.fault.repair") / n,
        "traces.gen_s": statistics.median(gen_s),
        "bench.traced_throughput_ratio": jobs_per_s(traced) / jobs_per_s(untraced),
    }


def write_spans(path: Path, traced: List[Replay]) -> None:
    """One JSON line per span: replay, id, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, rep in enumerate(traced):
            for row in rep.spans.rows():
                fh.write(json.dumps([k, *row]) + "\n")


# ----------------------------------------------------------------------
# Entry point


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> int:
    clock = time.perf_counter
    seeds = trace_seeds(seed)
    inputs: Dict[int, Inputs] = {}
    gen_s: List[float] = []
    setup_s: List[float] = []
    for _ in range(SETUP_ROUNDS):
        for i, ts in enumerate(seeds):
            gc.collect()
            before = time_probe()
            inputs[i], _sim, g, s = build(wl, ts)
            # at the reference speed, timed by probes on either side
            speed = statistics.fmean([before, time_probe()])
            gen_s.append(g)
            setup_s.append(s * PROBE_REF_S / speed)

    # Whole cycles over the run's traces, so every trace weighs the same;
    # a traced run pairs each traced replay with an untraced one.
    replays: List[Replay] = []
    traced_reps: List[Replay] = []
    start = clock()
    while not replays or clock() - start < seconds:
        for i in range(TRACED_TRACES if traced else TRACES_PER_RUN):
            gc.collect()
            replays.append(replay(i, inputs[i], simulator(inputs[i])))
            if traced:
                gc.collect()
                traced_reps.append(
                    replay(i, inputs[i], simulator(inputs[i]), traced=True)
                )
    measured_s = clock() - start
    metrics = (
        end_to_end(inputs, replays, setup_s) if not traced
        else per_layer(traced_reps, replays, gen_s)
    )

    everything = replays + traced_reps
    errors = [e for rep in everything for e in rep.errors]
    errors += reference_errors(wl, seed, everything)

    submitted = sum(len(inputs[r.index].trace.jobs) for r in everything)
    unscheduled = sum(len(r.result.unscheduled) for r in everything)
    rounds = timing_summary(
        [s * 1e3 for r in traced_reps for s in r.rounds_s] if traced
        else [s * 1e3 for r in replays for s in r.rounds_norm_s]
    )
    units = LAYER_UNITS if traced else E2E_UNITS
    print(f"== {wl.name}  seed={seed}  trace seeds={seeds}  "
          f"replays={len(everything)}  measured={measured_s:.1f}s")
    print(f"jobs_submitted={submitted}  jobs_unscheduled={unscheduled}")
    tail = (f"  p{rounds['tail_pct']:g}={rounds['tail']:.3f} ms"
            if "tail" in rounds else "")
    print(f"round latency{' (traced)' if traced else ' at reference speed'}, "
          f"pooled: "
          f"n={rounds['n']}  p50={rounds['p50']:.3f} ms{tail}")
    print("replay host seconds: "
          + " ".join(f"{r.wall_s:.2f}" for r in replays))
    if not traced:
        print("replay seconds at reference speed: "
              + " ".join(f"{r.norm_s:.2f}" for r in replays))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if traced:
        path = SPAN_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
        write_spans(path, traced_reps)
        print(f"spans: {sum(len(r.spans) for r in traced_reps)} -> "
              f"{path.relative_to(ROOT)}")
    for err in errors[:20]:
        print(f"ERROR: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": submitted,
        "failed": unscheduled,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        # one process per workload, so peak_rss_mb is that workload's
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    _import_program()
    return run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )


if __name__ == "__main__":
    sys.exit(main())
