"""Measurement helpers for the replay benchmark: percentiles, the
host-speed probe, spans, names.

Everything here is plain Python (and numpy, for the probe) with no
dependency on the scheduler, so the arithmetic is unit-tested on its own
(``perfbench/tests``).
"""

from __future__ import annotations

import math
import re
import statistics
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: the rule every metric name in BENCHMARK.json obeys (first character a
#: letter or digit, at most 64 characters)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: percentiles the tail report may choose from, highest first
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample,
    so the value reported is one that was actually observed."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[min(_rank(len(ordered), pct), len(ordered)) - 1]


def _rank(n: int, pct: float) -> int:
    # rounded first so 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it among ``n`` samples (None when not even p90 qualifies)."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def timing_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest percentile that has at least ten samples
    beyond it, with the sample count: ``{"n", "p50", "tail_pct", "tail"}``.
    """
    n = len(samples)
    out: Dict[str, float] = {"n": n, "p50": percentile(samples, 50.0)}
    pct = tail_percentile(n)
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = percentile(samples, pct)
    return out


def require_percentile(samples: Sequence[float], pct: float) -> float:
    """``percentile`` that refuses to report a tail with fewer than
    ``MIN_BEYOND`` samples beyond it."""
    beyond = samples_beyond(len(samples), pct)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples has only {beyond} beyond it"
        )
    return percentile(samples, pct)


# ----------------------------------------------------------------------
# Host-speed probe
#
# The shared host this benchmark runs on switches between a fast and a
# slow speed (about 1.7x apart) in phases of a fraction of a second to a
# minute.  A fixed probe kernel, run between scheduling rounds, measures
# the speed of each stretch of a replay; dividing the stretch's host
# time by the probe's time, times a fixed reference probe time, reports
# the replay at the reference speed whatever phase the host was in.

#: host seconds the probe kernel takes at the reference speed (its
#: fast-phase time on a 2-vCPU Sapphire Rapids Xeon KVM guest): the
#: unit that normalized times are expressed in
PROBE_REF_S = 0.2e-3

#: a probe runs at the first round boundary this long after the last one
PROBE_EVERY_S = 0.01

_PROBE_ARRAY = np.arange(256, dtype=np.int64)


def probe_kernel() -> int:
    """Fixed work shaped like the scheduler's: small numpy mask-and-count
    operations and Python dictionary updates."""
    acc = 0
    a = _PROBE_ARRAY
    for i in range(96):
        acc += int(np.count_nonzero(a >= i))
    d: Dict[int, int] = {}
    for i in range(400):
        k = (i * 7919) % 509
        d[k] = d.get(k, 0) + i
    return acc + len(d)


def time_probe() -> float:
    """Host seconds one run of the probe kernel takes now."""
    t0 = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - t0


def smoothed(durations: Sequence[float]) -> List[float]:
    """Each probe time replaced by the median of three neighbouring
    probes (it and the ones either side; the first or last three at the
    ends), so one probe an interrupt lengthened does not rescale its
    stretch."""
    n = len(durations)
    out = []
    for i in range(n):
        lo = max(0, min(i - 1, n - 3))
        out.append(statistics.median(durations[lo:lo + 3]))
    return out


def normalized(walls: Sequence[float], probe_of: Sequence[int],
               durations: Sequence[float]) -> List[float]:
    """Host times rescaled to the reference speed: ``walls[k]`` was
    measured in the stretch whose speed probe ``probe_of[k]`` timed."""
    scale = [PROBE_REF_S / d for d in smoothed(durations)]
    return [w * scale[j] for w, j in zip(walls, probe_of)]


# ----------------------------------------------------------------------
# Spans


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Per-span self time: duration minus the part of the span's interval
    that its child spans cover (``parents[i]`` is the index of span
    ``i``'s parent, -1 for a root)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (a, b) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        out.append((b - a) - (covered(kids, a, b) if kids else 0.0))
    return out


class SpanRecorder:
    """In-memory spans (name, start, end, parent) around wrapped calls.

    Single-threaded by design: the parent of a span is whichever wrapped
    call was open when it began.  ``on_return`` hooks see each wrapped
    call's result (the benchmark collects allocations through one).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(
        self, name: str, fn: Callable, on_return: Optional[Callable] = None
    ) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, open_ = self.parents, self._open
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if on_return is not None:
                on_return(result)
            return result

        return spanned

    def self_times(self) -> List[float]:
        return self_times(self.starts, self.ends, self.parents)

    def rows(self) -> Iterator[Tuple[int, str, float, float, int]]:
        """``(id, name, start, end, parent)`` per span, in start order."""
        return zip(
            range(len(self.names)), self.names, self.starts, self.ends,
            self.parents,
        )


@contextmanager
def patched(targets: Sequence[Tuple[type, str, Callable]]):
    """Temporarily replace class attributes: each ``(cls, name, make)``
    sets ``cls.name = make(original)``; the originals come back on exit,
    including when the method was inherited rather than defined on
    ``cls``."""
    with ExitStack() as stack:
        for cls, name, make in targets:
            own = cls.__dict__.get(name)
            setattr(cls, name, make(getattr(cls, name)))
            stack.callback(_restore, cls, name, own)
        yield


def _restore(cls: type, name: str, own) -> None:
    if own is None:
        delattr(cls, name)
    else:
        setattr(cls, name, own)
