"""Regenerate ``reference.json``: the reference seed's placement
fingerprints, computed on the scalar twins (naive allocator search,
scalar scheduling pass, one-event-at-a-time drain).

Usage (from the repository root)::

    python3 perfbench/make_reference.py

The optimized paths must reproduce these fingerprints exactly; the
benchmark checks them on every run with ``--seed 0``.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._import_program()
    doc = {"seed": run.REFERENCE_SEED, "traces_per_run": run.TRACES_PER_RUN,
           "workloads": {}}
    for wl in run.WORKLOADS.values():
        entries = []
        for i, ts in enumerate(run.trace_seeds(run.REFERENCE_SEED)):
            inputs, sim, _, _ = run.build(wl, ts, naive=True)
            rep = run.replay(i, inputs, sim)
            if rep.errors:
                print(f"{wl.name} trace {i}: {rep.errors[0]}", file=sys.stderr)
                return 1
            entries.append({
                "trace_seed": ts,
                "jobs": len(inputs.trace.jobs),
                "digest": rep.digest,
            })
            print(f"{wl.name} trace {i} (seed {ts}): {entries[-1]['digest']} "
                  f"[{rep.wall_s:.1f}s]")
        doc["workloads"][wl.name] = entries
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
