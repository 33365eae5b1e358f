"""The incremental occupancy index layer and its decision-invariance
contract.

Three families of checks:

* **index consistency** — a seeded random claim/release soak in which,
  after *every* mutation, each incremental index (`pod_free`,
  `full_free_leaves`, the >=k leaf counters, the exact-count bitmask
  buckets) is compared against its recomputed-from-scratch counterpart;
* **read-helper equivalence** — the bucket-backed candidate orders and
  vectorized pod prefilter answer exactly like brute-force scans;
* **search equivalence** — every allocator makes byte-identical
  decisions with ``use_indexes`` on and off, including under a tight
  LC+S step budget where the memo's tick-charging must make the
  timeout fire at exactly the same instant.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_allocator
from repro.topology.fattree import FatTree, LinkId
from repro.topology.faults import FaultInjector
from repro.topology.state import ClusterState, mask_of


# ----------------------------------------------------------------------
# Recompute-from-scratch reference for every incremental index
# ----------------------------------------------------------------------
def assert_indexes_match_recomputed(state: ClusterState) -> None:
    tree = state.tree
    m1, m2 = tree.m1, tree.m2
    per_leaf = [
        int((state.node_owner[leaf * m1 : (leaf + 1) * m1] == -1).sum())
        for leaf in range(tree.num_leaves)
    ]
    assert per_leaf == state.free_per_leaf.tolist()
    for pod in range(tree.num_pods):
        counts = per_leaf[pod * m2 : (pod + 1) * m2]
        assert sum(counts) == int(state.pod_free[pod])
        assert counts.count(m1) == int(state.full_free_leaves[pod])
        for k in range(m1 + 1):
            assert sum(1 for c in counts if c >= k) == state.leaves_with_at_least(
                pod, k
            ), (pod, k)
        for f in range(m1 + 1):
            want = mask_of(j for j in range(m2) if counts[j] == f)
            assert want == state._leaf_buckets[pod][f], (pod, f)
        assert state.fully_free_leaf_mask(pod) == mask_of(
            j for j in range(m2) if counts[j] == m1
        )
    assert sum(per_leaf) == state.free_nodes_total
    state.audit()  # and the audit itself must agree


def random_claims(state: ClusterState, rng: random.Random, jid: int):
    """Claim a random set of free nodes; returns the claim size or 0."""
    free = np.flatnonzero(state.node_owner == -1).tolist()
    if not free:
        return 0
    size = rng.randint(1, min(len(free), state.tree.m1 * 3))
    state.claim(jid, rng.sample(free, size))
    return size


class TestIndexConsistency:
    def test_claim_release_soak(self):
        tree = FatTree.from_radix(8)
        state = ClusterState(tree)
        rng = random.Random(31)
        live = []
        jid = 0
        for _ in range(300):
            if live and (rng.random() < 0.45 or not state.free_nodes_total):
                state.release(live.pop(rng.randrange(len(live))))
            else:
                jid += 1
                if random_claims(state, rng, jid):
                    live.append(jid)
            assert_indexes_match_recomputed(state)
        while live:  # drain back to pristine
            state.release(live.pop())
            assert_indexes_match_recomputed(state)
        assert state.free_nodes_total == tree.num_nodes

    def test_fresh_state_indexes(self):
        tree = FatTree.from_radix(10)
        assert_indexes_match_recomputed(ClusterState(tree))

    def test_audit_detects_stale_leaf_ge(self):
        state = ClusterState(FatTree.from_radix(8))
        state._leaf_ge[1, 0] -= 1
        with pytest.raises(Exception, match="_leaf_ge"):
            state.audit()

    def test_audit_detects_stale_bucket(self):
        state = ClusterState(FatTree.from_radix(8))
        state._leaf_buckets[0][0] |= 1
        with pytest.raises(Exception, match="_leaf_buckets"):
            state.audit()


class TestReadOnlyView:
    def test_free_leaf_counts_mutation_raises(self):
        state = ClusterState(FatTree.from_radix(8))
        view = state.free_leaf_counts_in_pod(0)
        with pytest.raises(ValueError):
            view[0] = 0
        with pytest.raises(ValueError):
            view += 1

    def test_values_still_track_state(self):
        tree = FatTree.from_radix(8)
        state = ClusterState(tree)
        state.claim(1, [0, 1])
        assert int(state.free_leaf_counts_in_pod(0)[0]) == tree.m1 - 2


class TestReadHelperEquivalence:
    @pytest.fixture
    def state(self):
        tree = FatTree.from_radix(8)
        state = ClusterState(tree)
        rng = random.Random(7)
        jid = 0
        for _ in range(40):
            jid += 1
            random_claims(state, rng, jid)
        return state

    def test_leaf_candidates_is_best_fit_order(self, state):
        tree = state.tree
        for pod in range(tree.num_pods):
            free = state.free_leaf_counts_in_pod(pod)
            base = tree.first_leaf_of_pod(pod)
            for min_free in range(tree.m1 + 1):
                want = sorted(
                    (base + k for k in range(tree.m2) if free[k] >= min_free),
                    key=lambda leaf: (int(free[leaf - base]), leaf),
                )
                assert state.leaf_candidates(pod, min_free) == want

    def test_leaf_candidates_by_id_order(self, state):
        tree = state.tree
        for pod in range(tree.num_pods):
            free = state.free_leaf_counts_in_pod(pod)
            base = tree.first_leaf_of_pod(pod)
            for min_free in range(tree.m1 + 1):
                want = [
                    base + k for k in range(tree.m2) if free[k] >= min_free
                ]
                assert state.leaf_candidates_by_id(pod, min_free) == want

    def test_best_fit_leaf_is_candidate_head(self, state):
        tree = state.tree
        for pod in range(tree.num_pods):
            for min_free in range(tree.m1 + 1):
                cands = state.leaf_candidates(pod, min_free)
                assert state.best_fit_leaf(pod, min_free) == (
                    cands[0] if cands else None
                )

    def test_feasible_pods_matches_bruteforce(self, state):
        tree = state.tree
        rng = random.Random(5)
        for _ in range(50):
            min_free = rng.randint(0, tree.nodes_per_pod)
            k = rng.randint(0, tree.m1)
            min_leaves = rng.randint(0, tree.m2)
            min_full = rng.randint(0, tree.m2)
            got = state.feasible_pods(
                min_free, k, min_leaves, min_full
            ).tolist()
            want = []
            for pod in range(tree.num_pods):
                free = state.free_leaf_counts_in_pod(pod)
                if int(free.sum()) < min_free:
                    continue
                if min_leaves and sum(1 for f in free if f >= k) < min_leaves:
                    continue
                if min_full and sum(
                    1 for f in free if f == tree.m1
                ) < min_full:
                    continue
                want.append(pod)
            assert got == want, (min_free, k, min_leaves, min_full)


# ----------------------------------------------------------------------
# The searches' batched prefilters vs per-shape feasible_pods
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    claims=st.integers(min_value=0, max_value=40),
    faults=st.integers(min_value=1, max_value=6),
)
def test_search_prefilters_match_feasible_pods(seed, claims, faults):
    """Over random occupancy states with leaf-uplink faults:

    * every row of the two-level shape x pod matrix equals
      ``feasible_pods(size, nL, LT)`` for its shape;
    * the per-search three-level candidate list equals
      ``feasible_pods(0, min_full_leaves=LT)`` narrowed to pods with
      ``LT`` usable full leaves, and ``pods_pruned`` grows by the pods
      ``feasible_pods`` rejects.
    """
    tree = FatTree.from_radix(12)
    alloc = make_allocator("jigsaw", tree)
    state = alloc.state
    rng = random.Random(seed)
    for jid in range(1, claims + 1):
        random_claims(state, rng, jid)
    # Fail an uplink of some fully-free leaves: their nodes stay free,
    # so they count as fully free but not as usable full leaves.
    full = [
        leaf for leaf in range(tree.num_leaves)
        if state.leaf_is_fully_free(leaf)
    ]
    inj = FaultInjector(alloc)
    for leaf in rng.sample(full, min(faults, len(full))):
        inj.fail_leaf_link(LinkId(leaf, rng.randrange(tree.l2_per_pod)))
    if full:
        assert any(
            state.usable_full_leaves(p) < int(state.full_free_leaves[p])
            for p in range(tree.num_pods)
        )

    for size in range(1, tree.nodes_per_pod + 1):
        shapes = alloc._two_level_shape_iter(size)
        fit = alloc._two_level_prefilter(size)
        assert fit.shape == (len(shapes), tree.num_pods)
        for row, shape in zip(fit, shapes):
            want = state.feasible_pods(size, shape.nL, shape.LT)
            assert np.flatnonzero(row).tolist() == want.tolist(), (
                size, shape,
            )

    alloc._three_level_cols = None  # as at the start of a search
    for LT in range(1, tree.m2 + 1):
        prefiltered = state.feasible_pods(0, min_full_leaves=LT).tolist()
        before = alloc.stats.pods_pruned
        got = alloc._three_level_candidates(LT)
        assert got == [
            p for p in prefiltered if state.usable_full_leaves(p) >= LT
        ], LT
        assert alloc.stats.pods_pruned - before == (
            tree.num_pods - len(prefiltered)
        )


# ----------------------------------------------------------------------
# Indexed vs naive searches must make byte-identical decisions
# ----------------------------------------------------------------------
def drive_twins(scheme, radix, seed, steps, max_size, **kwargs):
    """Run indexed and naive twins through one random workload."""
    tree = FatTree.from_radix(radix)
    fast = make_allocator(scheme, tree, **kwargs)
    slow = make_allocator(scheme, tree, **kwargs)
    slow.use_indexes = False
    assert fast.use_indexes
    rng = random.Random(seed)
    live = []
    jid = 0
    placed = failed = 0
    for _ in range(steps):
        if live and rng.random() < 0.4:
            j = live.pop(rng.randrange(len(live)))
            fast.release(j)
            slow.release(j)
            continue
        jid += 1
        size = rng.randint(1, max_size)
        a = fast.allocate(jid, size)
        b = slow.allocate(jid, size)
        if (a is None) != (b is None):
            raise AssertionError(
                f"{scheme}: job {jid} size {size}: "
                f"indexed={'ok' if a else 'fail'} "
                f"naive={'ok' if b else 'fail'}"
            )
        if a is None:
            failed += 1
            continue
        assert a.nodes == b.nodes, (scheme, jid, size)
        assert a.leaf_links == b.leaf_links, (scheme, jid, size)
        assert a.spine_links == b.spine_links, (scheme, jid, size)
        assert a.shape == b.shape, (scheme, jid, size)
        live.append(jid)
        placed += 1
    assert placed, "workload never placed a job — not a meaningful test"
    assert (fast.state.node_owner == slow.state.node_owner).all()
    fast.state.audit()
    return fast, slow, failed


class TestSearchEquivalence:
    @pytest.mark.parametrize("scheme", ["jigsaw", "laas", "ta", "lc+s", "lc"])
    def test_small_jobs(self, scheme):
        drive_twins(scheme, radix=8, seed=11, steps=120, max_size=10)

    @pytest.mark.parametrize("scheme", ["jigsaw", "laas", "ta", "lc+s"])
    def test_pod_spanning_jobs(self, scheme):
        tree = FatTree.from_radix(8)
        drive_twins(
            scheme, radix=8, seed=12, steps=80,
            max_size=tree.nodes_per_pod + tree.m1,
        )

    def test_lcs_tight_budget_timeouts_match(self):
        # A budget small enough that searches genuinely exhaust it:
        # the memo's tick-charging must reproduce the exact step at
        # which BudgetExhausted fires, or the twins diverge.
        tree = FatTree.from_radix(8)
        fast, slow, failed = drive_twins(
            "lc+s", radix=8, seed=13, steps=100,
            max_size=tree.nodes_per_pod + 2 * tree.m1,
            step_budget=150,
        )
        assert failed, "budget never fired — test lost its teeth"

    def test_pod_memo_hit_replays_identical_cost(self):
        # A memo hit must charge the budget exactly what the original
        # call cost — otherwise BudgetExhausted fires at a different
        # step than the uncached search and decisions diverge.
        tree = FatTree.from_radix(8)
        allocator = make_allocator("lc+s", tree)
        allocator.state.claim(1, [0, 5, 17])
        allocator._steps_left = allocator.step_budget
        allocator._pod_memo.clear()

        before = allocator._steps_left
        first = allocator._find_all_in_pod(0, 2, 3, 0)
        cost = before - allocator._steps_left
        assert first and cost > 0
        assert allocator.stats.memo_hits == 0

        before = allocator._steps_left
        again = allocator._find_all_in_pod(0, 2, 3, 0)
        assert allocator.stats.memo_hits == 1
        assert again is first  # replayed, not re-searched
        assert before - allocator._steps_left == cost

        # ...and a hit still raises BudgetExhausted when the replayed
        # cost exhausts what's left, exactly like the real search would.
        allocator._steps_left = cost
        with pytest.raises(allocator.BudgetExhausted):
            allocator._find_all_in_pod(0, 2, 3, 0)
        assert allocator.stats.memo_hits == 2

    def test_search_effort_counters_populate(self):
        fast, _slow, _failed = drive_twins(
            "jigsaw", radix=8, seed=14, steps=100, max_size=20
        )
        stats = fast.stats
        assert stats.pods_pruned > 0
        assert stats.candidate_hits > 0
        assert stats.backtrack_steps > 0
        # the naive twin never consults the index layer
        assert _slow.stats.candidate_hits == 0
        assert _slow.stats.pods_pruned == 0

    def test_naive_env_knob(self, monkeypatch):
        tree = FatTree.from_radix(8)
        monkeypatch.setenv("REPRO_NAIVE_SEARCH", "1")
        assert make_allocator("jigsaw", tree).use_indexes is False
        monkeypatch.setenv("REPRO_NAIVE_SEARCH", "0")
        assert make_allocator("jigsaw", tree).use_indexes is True
        monkeypatch.delenv("REPRO_NAIVE_SEARCH")
        assert make_allocator("ta", tree).use_indexes is True
