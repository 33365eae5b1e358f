"""Event drain on Synth-28 batch-step, the release-path micro, radix-36 smoke.

Runs every scheme on the same Synth-28 batch-step trace (step interval
300 s) and tabulates end-to-end wall ms/job and the time spent inside
the event drain (``_RunState.drain``, inclusive of its grouped
``release_many`` calls), each the best of ``REPEATS`` deterministic
runs, plus the decision counters.

Where the speed lives: on this trace the allocator *search* dominates
wall time (cProfile: ~95% of a jigsaw batch run is inside
``allocate``), and the search is decision-identical by construction, so
the drain is a small share of any round.  The drain's own speed comes
from retiring a round's completions through one
``Allocator.release_many``; the micro-benchmark holds that path to
>= 1.3x over N sequential ``release`` calls on a fully packed radix-28
machine.

Then the radix-36 preset (11664 nodes, the maximal tree a radix-36
switch supports) gets a bounded smoke run: Synth-36 under jigsaw must
drain its queue.
"""

import time

from repro.core.registry import make_allocator
from repro.experiments.grid import setup_for
from repro.experiments.report import render_table
from repro.experiments.runner import run_scheme
from repro.obs.bench import GATE_SCALE, environment, make_bench_result
from repro.sched.simulator import _RunState
from repro.topology.fattree import FatTree

TRACE = "Synth-28"
SCALE_TRACE = "Synth-36"
SMOKE_SCHEME = "jigsaw"
SCHEMES = ("baseline", "ta", "laas", "jigsaw", "lc+s")
STEP = 300.0

#: the batched release path itself must beat N scalar releases by this
MIN_RELEASE_SPEEDUP = 1.3

#: wall time per configuration is the best of this many runs (the runs
#: are deterministic, so repeats only strip scheduler/OS noise)
REPEATS = 2


def timed_run(trace, scheme, scale=None, seed=0, step=STEP):
    """One in-process run; returns (result, wall s, drain s), where the
    drain time is the inclusive time of every ``_RunState.drain`` call."""
    setup = setup_for(trace, scale=scale, seed=seed)
    orig = _RunState.drain
    spent = [0.0]

    def timed(self, times, kinds, payloads):
        t0 = time.perf_counter()
        try:
            return orig(self, times, kinds, payloads)
        finally:
            spent[0] += time.perf_counter() - t0

    _RunState.drain = timed
    try:
        t0 = time.perf_counter()
        result = run_scheme(setup, scheme, seed=seed, step_interval=step)
        wall = time.perf_counter() - t0
    finally:
        _RunState.drain = orig
    return result, wall, spent[0]


def best_of(trace, scheme, scale=None, seed=0, repeats=REPEATS):
    """(result, best wall s, best drain s) over ``repeats`` runs."""
    runs = [timed_run(trace, scheme, scale, seed) for _ in range(repeats)]
    return (runs[0][0], min(r[1] for r in runs), min(r[2] for r in runs))


def event_core(scale=None, seed=0):
    """(scheme -> row) wall and drain time on the batch-step trace."""
    rows = {}
    for scheme in SCHEMES:
        result, wall, drain = best_of(TRACE, scheme, scale, seed)
        jobs = len(result.jobs) or 1
        rows[scheme] = {
            "util%": result.steady_state_utilization,
            "ms/job": f"{wall * 1e3 / jobs:.3f}",
            "drain ms": f"{drain * 1e3:.1f}",
            "drain %": 100.0 * drain / wall if wall else 0.0,
            "attempts": result.alloc_attempts,
            "rounds": result.scheduling_rounds,
            "_result": result,
        }
    return rows


def release_micro():
    """Bulk vs sequential release on a fully packed radix-28 machine.

    Packs the 5488-node cluster with size-28 jigsaw jobs, then frees
    every one of them — once with N ``release`` calls, once with one
    ``release_many`` — and times the freeing alone (best of REPEATS).
    """
    def packed():
        alloc = make_allocator(SMOKE_SCHEME, FatTree.from_radix(28))
        job_id = 0
        while True:
            job_id += 1
            if alloc.allocate(job_id, 28) is None:
                return alloc, list(range(1, job_id))

    seq = bulk = float("inf")
    jobs = 0
    for _ in range(REPEATS):
        alloc, ids = packed()
        jobs = len(ids)
        t0 = time.perf_counter()
        for job_id in ids:
            alloc.release(job_id)
        seq = min(seq, time.perf_counter() - t0)
        assert alloc.state.is_idle()

        alloc, ids = packed()
        t0 = time.perf_counter()
        alloc.release_many(ids)
        bulk = min(bulk, time.perf_counter() - t0)
        assert alloc.state.is_idle()
        alloc.state.audit()
    return {
        "jobs": jobs,
        "sequential ms": f"{seq * 1e3:.2f}",
        "bulk ms": f"{bulk * 1e3:.2f}",
        "speedup": seq / bulk if bulk else float("inf"),
    }


def scale_smoke(scale=None, seed=0):
    """One bounded radix-36 run (11664 nodes), event-driven."""
    setup = setup_for(SCALE_TRACE, scale=scale, seed=seed)
    t0 = time.perf_counter()
    result = run_scheme(setup, SMOKE_SCHEME, seed=seed)
    wall = time.perf_counter() - t0
    jobs = len(result.jobs) or 1
    return {
        "nodes": setup.tree.num_nodes,
        "jobs": jobs,
        "wall s": f"{wall:.2f}",
        "ms/job": f"{wall * 1e3 / jobs:.3f}",
        "util%": result.steady_state_utilization,
        "unscheduled": len(result.unscheduled),
        "_result": result,
    }


def event_core_suite(scale=None, seed=0):
    """All three measurements, in one timed unit."""
    return (event_core(scale=scale, seed=seed), release_micro(),
            scale_smoke(scale=scale, seed=seed))


def render(rows, micro, smoke):
    visible = {
        scheme: {k: v for k, v in row.items() if not k.startswith("_")}
        for scheme, row in rows.items()
    }
    main = render_table(
        f"Event drain: {TRACE}, batch step {STEP:.0f}s (best of "
        f"{REPEATS}; drain time includes its grouped releases)",
        visible,
        ("util%", "ms/job", "drain ms", "drain %", "attempts", "rounds"),
        row_header="scheme",
    )
    micro_tbl = render_table(
        "Release path: one release_many vs N sequential releases "
        f"(packed radix-28, {SMOKE_SCHEME})",
        {"release": micro},
        ("jobs", "sequential ms", "bulk ms", "speedup"),
        row_header="path",
    )
    smoke_tbl = render_table(
        f"Radix-36 scale-up smoke: {SCALE_TRACE} "
        f"({smoke['nodes']} nodes)",
        {SMOKE_SCHEME: {k: v for k, v in smoke.items()
                        if not k.startswith("_")}},
        ("nodes", "jobs", "wall s", "ms/job", "util%", "unscheduled"),
        row_header="scheme",
    )
    return "\n\n".join((main, micro_tbl, smoke_tbl))


def bench_payload(scale: float = GATE_SCALE, seed: int = 0) -> dict:
    """The ``BENCH_event_core.json`` document: the event drain on the
    gate slice (Synth-28 under jigsaw, batch step 300s)."""
    result, wall, drain = timed_run(TRACE, SMOKE_SCHEME, scale, seed)
    jobs = len(result.jobs) or 1
    quantities = {
        "ms_per_job": {"value": wall * 1e3 / jobs, "unit": "ms"},
        "drain_ms_per_job": {"value": drain * 1e3 / jobs, "unit": "ms"},
    }
    counters = {
        "alloc_attempts": result.alloc_attempts,
        "scheduling_rounds": result.scheduling_rounds,
        "jobs": jobs,
        "unscheduled": len(result.unscheduled),
    }
    return make_bench_result(
        "event_core", quantities, counters, env=environment(scale),
    )


def bench_event_core(benchmark, save_result, save_bench, scale):
    rows, micro, smoke = benchmark.pedantic(
        lambda: event_core_suite(scale=scale), rounds=1, iterations=1
    )
    save_result("event_core", render(rows, micro, smoke))

    for scheme, row in rows.items():
        assert not row["_result"].unscheduled, scheme

    # The batched release path is where the drain's speed lives.
    assert micro["speedup"] >= MIN_RELEASE_SPEEDUP, micro

    # Radix-36 smoke: the 11664-node preset drains its queue.
    assert not smoke["_result"].unscheduled, smoke["_result"].unscheduled

    save_bench(bench_payload())
