"""Enumeration of legal allocation shapes (section 3.2.2, conditions 1-3).

The formal conditions force every allocation into a rigid arithmetic
shape.  A **two-level** (single-subtree) allocation of ``N`` nodes is

    ``N = LT * nL + nrL``          with ``0 <= nrL < nL``

— ``LT`` *full* leaves carrying ``nL`` nodes each plus an optional
remainder leaf carrying ``nrL``.  A **three-level** allocation is

    ``N = T * (LT * nL) + (LrT * nL + nrL)``

— ``T`` identical subtrees of ``LT`` full leaves, plus an optional
remainder subtree of ``LrT`` full leaves and an optional remainder leaf
(Lemma 3 proves the remainder leaf must live in the remainder subtree).

Jigsaw's single extra restriction (section 4) is that three-level
allocations use *all* nodes per leaf (``nL = m1``) except on the
remainder leaf; this collapses the search space and is what keeps
external fragmentation and scheduling time low.  The least-constrained
scheme (LC+S) drops that restriction, which is why its shape set — and
its search — is so much larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal, Tuple

import numpy as np

Order = Literal["dense", "sparse"]


@dataclass(frozen=True)
class TwoLevelShape:
    """Shape of a single-subtree allocation: ``LT`` full leaves of ``nL``
    nodes plus an optional remainder leaf of ``nrL < nL`` nodes."""

    LT: int
    nL: int
    nrL: int

    def __post_init__(self) -> None:
        if self.LT < 1 or self.nL < 1 or not 0 <= self.nrL < self.nL:
            raise ValueError(f"malformed two-level shape {self!r}")

    @property
    def size(self) -> int:
        return self.LT * self.nL + self.nrL

    @property
    def num_leaves(self) -> int:
        return self.LT + (1 if self.nrL else 0)

    @property
    def single_leaf(self) -> bool:
        """True when the whole job fits on one leaf (no links needed)."""
        return self.num_leaves == 1


@dataclass(frozen=True)
class ThreeLevelShape:
    """Shape of a multi-subtree allocation.

    ``T`` full subtrees of ``LT`` leaves with ``nL`` nodes each; a
    remainder subtree of ``LrT`` full leaves plus a remainder leaf of
    ``nrL`` nodes.  ``nrT = LrT * nL + nrL`` must be strictly smaller
    than ``nT = LT * nL`` (Lemma 2), and the remainder leaf lives in the
    remainder subtree (Lemma 3).
    """

    T: int
    LT: int
    nL: int
    LrT: int
    nrL: int

    def __post_init__(self) -> None:
        if self.T < 1 or self.LT < 1 or self.nL < 1:
            raise ValueError(f"malformed three-level shape {self!r}")
        if not 0 <= self.nrL < self.nL:
            raise ValueError(f"remainder leaf too large in {self!r}")
        if self.LrT < 0 or self.nrT >= self.nT:
            raise ValueError(f"remainder subtree too large in {self!r}")

    @property
    def nT(self) -> int:
        """Nodes per full subtree."""
        return self.LT * self.nL

    @property
    def nrT(self) -> int:
        """Nodes in the remainder subtree (0 = none)."""
        return self.LrT * self.nL + self.nrL

    @property
    def size(self) -> int:
        return self.T * self.nT + self.nrT

    @property
    def num_pods(self) -> int:
        return self.T + (1 if self.nrT else 0)

    @property
    def has_remainder_pod(self) -> bool:
        return self.nrT > 0


def two_level_shapes(
    size: int, m1: int, m2: int, order: Order = "dense"
) -> Iterator[TwoLevelShape]:
    """All two-level shapes for a ``size``-node job in one pod.

    For each nodes-per-leaf value ``nL`` there is exactly one shape
    (``LT = size // nL``, ``nrL = size % nL``); shapes using more leaves
    than the pod has are skipped.

    ``order='dense'`` yields the largest ``nL`` (fewest leaves) first,
    which is Jigsaw's default: it touches the fewest leaves and leaves
    the most L2 index flexibility for later jobs.  ``'sparse'`` reverses
    this (exercised by the ordering ablation).
    """
    if size < 1:
        raise ValueError("job size must be positive")
    if size > m1 * m2:
        return
    nls = range(min(m1, size), 0, -1)
    if order == "sparse":
        nls = reversed(nls)
    for nL in nls:
        LT, nrL = divmod(size, nL)
        if LT + (1 if nrL else 0) <= m2:
            yield TwoLevelShape(LT=LT, nL=nL, nrL=nrL)


def three_level_shapes(
    size: int,
    m1: int,
    m2: int,
    m3: int,
    order: Order = "dense",
    full_leaves_only: bool = True,
) -> Iterator[ThreeLevelShape]:
    """All three-level shapes for a ``size``-node job.

    With ``full_leaves_only=True`` (Jigsaw's restriction, section 4)
    ``nL`` is pinned to ``m1``; with ``False`` every ``nL`` is considered
    (the least-constrained scheme).  Shapes equivalent to a two-level
    allocation (one pod, no remainder) are excluded — they are found by
    :func:`two_level_shapes` first.

    ``order='dense'`` yields shapes with the largest subtrees (fewest
    pods) first.
    """
    if size < 1:
        raise ValueError("job size must be positive")
    if size > m1 * m2 * m3:
        return
    nls = [m1] if full_leaves_only else list(range(min(m1, size), 0, -1))
    if order == "sparse":
        nls = list(reversed(nls))
    for nL in nls:
        lts = range(min(m2, max(1, size // nL)), 0, -1)
        if order == "sparse":
            lts = reversed(lts)
        for LT in lts:
            nT = LT * nL
            T, nrT = divmod(size, nT)
            if T < 1:
                continue
            if T == 1 and nrT == 0:
                continue  # single-subtree: a two-level shape
            if T + (1 if nrT else 0) > m3:
                continue
            LrT, nrL = divmod(nrT, nL)
            if LrT + (1 if nrL else 0) > m2:
                continue
            yield ThreeLevelShape(T=T, LT=LT, nL=nL, LrT=LrT, nrL=nrL)


# ----------------------------------------------------------------------
# Cached tuple variants: shape sets depend only on the arguments, and the
# allocators enumerate them on every attempt — the hot path of Table 3.
# ----------------------------------------------------------------------
@lru_cache(maxsize=65536)
def two_level_shapes_cached(
    size: int, m1: int, m2: int, order: Order = "dense"
) -> Tuple[TwoLevelShape, ...]:
    """Memoized :func:`two_level_shapes` as a tuple."""
    return tuple(two_level_shapes(size, m1, m2, order))


@lru_cache(maxsize=65536)
def two_level_shape_columns(
    size: int, m1: int, m2: int, order: Order = "dense"
) -> Tuple[np.ndarray, np.ndarray]:
    """``(nLs, LTs)`` columns of :func:`two_level_shapes_cached` (same
    key, same row order) for the vectorized shape x pod prefilter.
    The arrays are shared across calls, so they are read-only."""
    shapes = two_level_shapes_cached(size, m1, m2, order)
    nls = np.fromiter((s.nL for s in shapes), np.int64, len(shapes))
    lts = np.fromiter((s.LT for s in shapes), np.int64, len(shapes))
    nls.flags.writeable = False
    lts.flags.writeable = False
    return nls, lts


@lru_cache(maxsize=65536)
def three_level_shapes_cached(
    size: int,
    m1: int,
    m2: int,
    m3: int,
    order: Order = "dense",
    full_leaves_only: bool = True,
) -> Tuple[ThreeLevelShape, ...]:
    """Memoized :func:`three_level_shapes` as a tuple."""
    return tuple(
        three_level_shapes(size, m1, m2, m3, order, full_leaves_only)
    )
