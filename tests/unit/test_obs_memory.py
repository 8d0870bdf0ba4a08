"""Unit tests for memory accounting: plan-cache bytes and their gauges."""

import numpy as np

from repro.core import PlanCache, sfft
from repro.obs import global_registry
from repro.signals import make_sparse_signal

N, K = 1024, 4


class TestPlanCacheBytes:
    def test_gauge_matches_hand_computed_nbytes(self):
        # Acceptance criterion: sfft.plan_cache.bytes equals the sum of the
        # resident filter arrays' nbytes, computed by hand from the plans.
        cache = PlanCache()
        p1 = cache.get_or_make(N, K, seed=1)
        p2 = cache.get_or_make(2 * N, K, seed=2)
        expected = sum(
            int(p.filt.time.nbytes) + int(p.filt.response.nbytes)
            for p in (p1, p2)
        )
        assert cache.nbytes() == expected
        assert global_registry().gauge(
            "sfft.plan_cache.bytes"
        ).value == expected

    def test_built_workspace_is_attributed(self):
        cache = PlanCache()
        plan = cache.get_or_make(N, K, seed=1)
        before = cache.nbytes()
        sig = make_sparse_signal(N, K, seed=3)
        sfft(sig.time, plan=plan)  # builds the plan's lazy workspace
        ws_bytes = plan._workspace.memory_breakdown()["total_bytes"]
        assert ws_bytes > 0
        assert cache.nbytes() == before + ws_bytes
        # A cache hit republishes the gauge with the grown footprint.
        cache.get_or_make(N, K, seed=1)
        assert global_registry().gauge(
            "sfft.plan_cache.bytes"
        ).value == before + ws_bytes

    def test_plan_nbytes_counts_every_resident_array(self):
        # Every ndarray the filter and the built workspace hold, each
        # buffer once (views such as the reshaped tap matrix share memory
        # with an array already counted).
        plan = PlanCache().get_or_make(N, K, seed=1)
        sfft(make_sparse_signal(N, K, seed=3).time, plan=plan)
        held = [v for obj in (plan.filt, plan._workspace)
                for v in vars(obj).values() if isinstance(v, np.ndarray)]
        counted: list[np.ndarray] = []
        for arr in sorted(held, key=lambda a: -a.nbytes):
            if not any(np.shares_memory(arr, c) for c in counted):
                counted.append(arr)
        assert PlanCache.plan_nbytes(plan) == sum(a.nbytes for a in counted)

    def test_breakdown_rows_sum_to_total(self):
        cache = PlanCache()
        plan = cache.get_or_make(N, K, seed=1)
        sig = make_sparse_signal(N, K, seed=3)
        sfft(sig.time, plan=plan)
        rows = cache.memory_breakdown()
        assert len(rows) == 1
        row = rows[0]
        assert (row["n"], row["k"]) == (N, K)
        assert row["total_bytes"] == cache.nbytes()

    def test_eviction_shrinks_the_gauge(self):
        cache = PlanCache(capacity=1)
        cache.get_or_make(N, K, seed=1)
        cache.get_or_make(2 * N, K, seed=2)  # evicts the seed=1 plan
        assert global_registry().gauge(
            "sfft.plan_cache.bytes"
        ).value == cache.nbytes()
        assert global_registry().gauge("sfft.plan_cache.entries").value == 1

