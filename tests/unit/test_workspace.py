"""Unit tests for the per-plan execution workspace and the batch engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PlanWorkspace,
    bin_vectorized,
    permuted_indices,
    sfft,
    sfft_batch_fused,
)
from repro.core import workspace as workspace_mod
from repro.core.workspace import GATHER_ELEMENT_CAP
from repro.errors import ParameterError
from repro.signals import make_sparse_signal

from tests.conftest import cached_plan


def _signal_stack(n: int, k: int, S: int, *, seed: int = 500) -> np.ndarray:
    return np.stack([
        make_sparse_signal(n, k, seed=seed + t).time for t in range(S)
    ])


class TestWorkspaceArrays:
    def test_plan_caches_one_workspace(self, plan_small):
        assert plan_small.workspace() is plan_small.workspace()

    def test_gather_rows_are_permuted_indices(self, plan_small):
        ws = plan_small.workspace()
        g = ws.gather
        assert g.shape == (ws.loops, ws.rounds * ws.B)
        for r, perm in enumerate(plan_small.permutations):
            np.testing.assert_array_equal(
                g[r], permuted_indices(perm, ws.rounds * ws.B)
            )

    def test_taps_flat_is_a_view_when_already_padded(self, plan_small):
        ws = plan_small.workspace()
        # Plans pad taps to a multiple of B, so no copy is needed.
        assert ws.taps_flat is plan_small.filt.time
        assert ws.taps_matrix.shape == (ws.rounds, ws.B)
        np.testing.assert_array_equal(
            ws.taps_matrix.ravel(), ws.taps_flat
        )

    def test_gather_cap_disables_materialization(self, plan_small):
        ws = PlanWorkspace(plan_small, gather_cap=0)
        assert ws.gather is None
        assert GATHER_ELEMENT_CAP > 0

    def test_gather_cap_fallback_counted(self, plan_small):
        from repro.obs import global_registry

        before = global_registry().counter(
            "sfft.workspace.gather_cap_fallback"
        ).value
        PlanWorkspace(plan_small, gather_cap=0)
        after = global_registry().counter(
            "sfft.workspace.gather_cap_fallback"
        ).value
        assert after == before + 1
        # The materializing path must not touch the counter.
        PlanWorkspace(plan_small)
        assert global_registry().counter(
            "sfft.workspace.gather_cap_fallback"
        ).value == after


class TestWorkspaceClone:
    def test_clone_shares_immutable_arrays(self, plan_small):
        ws = plan_small.workspace()
        twin = ws.clone()
        assert twin is not ws
        assert twin.gather is ws.gather
        assert twin.taps_flat is ws.taps_flat

    def test_clone_has_private_scratch(self, plan_small, rng):
        ws = plan_small.workspace()
        twin = ws.clone()
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        a = ws.bin_fused(x)
        b = twin.bin_fused(x)
        assert a is not b  # distinct scratch buffers
        np.testing.assert_array_equal(a, b)

    def test_clone_preserves_gather_cap_fallback(self, plan_small):
        capped = PlanWorkspace(plan_small, gather_cap=0)
        twin = capped.clone()
        assert twin.gather is None


class TestBinFused:
    def test_matches_bin_vectorized_row_for_row(self, plan_small, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ws = plan_small.workspace()
        fused = ws.bin_fused(x)
        for r, perm in enumerate(plan_small.permutations):
            np.testing.assert_array_equal(
                fused[r],
                bin_vectorized(x, plan_small.filt, plan_small.B, perm),
            )

    def test_fallback_path_matches_materialized(self, plan_small, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        fused = plan_small.workspace().bin_fused(x).copy()
        fallback = PlanWorkspace(plan_small, gather_cap=0).bin_fused(x)
        np.testing.assert_array_equal(fused, fallback)

    def test_reuses_plan_scratch(self, plan_small, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ws = plan_small.workspace()
        assert ws.bin_fused(x) is ws.raw
        out = np.empty_like(ws.raw)
        assert ws.bin_fused(x, out=out) is out

    def test_stack_rows_match_single(self, plan_small):
        X = _signal_stack(1024, 4, 3)
        ws = plan_small.workspace()
        stack = ws.bin_fused_stack(X)
        for s in range(3):
            np.testing.assert_array_equal(
                stack[s], ws.bin_fused(X[s]).copy()
            )

    def test_stack_fallback_matches(self, plan_small):
        X = _signal_stack(1024, 4, 3)
        full = plan_small.workspace().bin_fused_stack(X)
        fallback = PlanWorkspace(plan_small, gather_cap=0).bin_fused_stack(X)
        np.testing.assert_array_equal(full, fallback)

    def test_shape_validation(self, plan_small, rng):
        ws = plan_small.workspace()
        with pytest.raises(ParameterError):
            ws.bin_fused(np.zeros(512, dtype=np.complex128))
        with pytest.raises(ParameterError):
            ws.bin_fused(np.zeros(1024, dtype=np.complex128),
                         out=np.empty((1, 1), dtype=np.complex128))
        with pytest.raises(ParameterError):
            ws.bin_fused_stack(np.zeros((2, 512), dtype=np.complex128))


class TestChunkedGather:
    """The one gather/tap/fold kernel, split into several chunks.

    ``plan_small`` has ``L = 6`` loops of ``rounds*B = 1024`` gathered
    samples, so a budget of one row, four rows (4 + 2 loops, one chunk
    partial; 4+4+4+4+2 over a three-signal stack, chunks straddling
    signals) and five rows (5 + 1) each split the rows differently.
    """

    @pytest.fixture(params=[1, 4, 5], ids=lambda r: f"{r}rows")
    def chunked(self, request, monkeypatch, plan_small):
        padded = plan_small.workspace().rounds * plan_small.B
        monkeypatch.setattr(workspace_mod, "STACK_CHUNK_ELEMENTS",
                            request.param * padded)
        return plan_small

    def test_rows_match_bin_vectorized(self, chunked, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        fused = chunked.workspace().bin_fused(x)
        for r, perm in enumerate(chunked.permutations):
            np.testing.assert_array_equal(
                fused[r], bin_vectorized(x, chunked.filt, chunked.B, perm)
            )

    def test_stack_rows_match_single(self, chunked):
        X = _signal_stack(1024, 4, 3)
        ws = chunked.workspace()
        stack = ws.bin_fused_stack(X)
        for s in range(3):
            np.testing.assert_array_equal(stack[s], ws.bin_fused(X[s]))

    def test_gather_cap_fallback_matches_materialized(self, chunked):
        X = _signal_stack(1024, 4, 3)
        capped = PlanWorkspace(chunked, gather_cap=0)
        ws = chunked.workspace()
        np.testing.assert_array_equal(
            capped.bin_fused_stack(X), ws.bin_fused_stack(X)
        )
        np.testing.assert_array_equal(
            capped.bin_fused(X[0]), ws.bin_fused(X[0])
        )

    def test_peak_memory_bounded_by_chunk_budget(self, monkeypatch):
        """No call materialises the ``(L, rounds*B)`` gather intermediate.

        With the budget below one row, the kernel may hold one row's
        gathered samples (plus one more, for a rebinding implementation);
        the whole gather would be ``L`` rows.
        """
        import tracemalloc

        plan = cached_plan(1 << 16, 16)
        ws = plan.workspace()
        row = ws.rounds * ws.B
        budget = row // 2
        assert ws.loops * row >= 8 * max(budget, row)
        monkeypatch.setattr(workspace_mod, "STACK_CHUNK_ELEMENTS", budget)
        x = make_sparse_signal(1 << 16, 16, seed=3).time
        X = np.stack([x, x])
        ws.bin_fused(x)  # materialise the resident gather matrix first
        bound = 2 * max(budget, row) * 16 + 16384
        tracemalloc.start()
        try:
            ws.bin_fused(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = ws.bin_fused_stack(X)
            _, stack_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert stack_peak <= bound + out.nbytes


class TestBatchEngine:
    def test_matches_per_signal_driver_exactly(self):
        plan = cached_plan(4096, 8)
        X = _signal_stack(4096, 8, 4)
        batch = sfft_batch_fused(X, plan)
        for s in range(4):
            single = sfft(X[s], plan=plan)
            np.testing.assert_array_equal(
                batch[s].locations, single.locations
            )
            np.testing.assert_array_equal(batch[s].values, single.values)
            np.testing.assert_array_equal(batch[s].votes, single.votes)

    def test_single_row_stack(self, plan_small, signal_small):
        res = sfft_batch_fused(signal_small.time[None, :], plan_small)
        assert len(res) == 1
        assert set(res[0].locations.tolist()) == set(
            signal_small.locations.tolist()
        )

    def test_rejects_bad_stack_shapes(self, plan_small):
        with pytest.raises(ParameterError):
            sfft_batch_fused(
                np.zeros((2, 2, 2), dtype=np.complex128), plan_small
            )
