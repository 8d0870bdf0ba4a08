"""End-to-end unit tests for the sFFT driver and result type."""

import numpy as np
import pytest

from repro.core import (
    STEP_NAMES,
    SparseFFTResult,
    cached_plan,
    dense_fft,
    dense_topk,
    global_plan_cache,
    make_plan,
    sfft,
    sfft_batch,
)
from repro.core.dense import reconstruct_time
from repro.errors import ParameterError
from repro.obs import Tracer
from repro.signals import add_awgn, make_sparse_signal


def _ground_truth(sig):
    return {int(f): complex(v) for f, v in zip(sig.locations, sig.values)}


class TestSfftExactRecovery:
    @pytest.mark.parametrize(
        "n,k,seed", [(1024, 1, 0), (1024, 4, 1), (4096, 10, 2), (1 << 14, 32, 3)]
    )
    def test_exact_sparse_recovery(self, n, k, seed):
        sig = make_sparse_signal(n, k, seed=seed)
        res = sfft(sig.time, k, seed=seed + 1000)
        want = _ground_truth(sig)
        assert set(res.as_dict()) == set(want)
        for f, v in res.as_dict().items():
            assert abs(v - want[f]) < 1e-5 * abs(want[f])

    def test_matches_dense_fft_topk(self):
        sig = make_sparse_signal(4096, 8, seed=4)
        res = sfft(sig.time, 8, seed=5)
        locs, vals = dense_topk(dense_fft(sig.time), 8)
        assert (res.locations == locs).all()
        assert np.abs(res.values - vals).max() < 1e-5 * np.abs(vals).max()

    def test_real_input_accepted(self):
        # A real signal has a conjugate-symmetric spectrum: k tones appear
        # as 2k coefficients; ask for 2k.
        n = 4096
        t = np.arange(n)
        x = np.cos(2 * np.pi * 50 * t / n) + 0.5 * np.cos(2 * np.pi * 300 * t / n)
        res = sfft(x, 4, seed=6)
        assert set(res.locations.tolist()) == {50, 300, n - 300, n - 50}

    def test_noisy_recovery(self):
        sig = make_sparse_signal(1 << 14, 16, seed=7)
        noisy, _ = add_awgn(sig.time, 25.0, seed=8)
        res = sfft(noisy, 16, seed=9)
        assert set(res.locations.tolist()) == set(sig.locations.tolist())


class TestSfftDriverOptions:
    def test_plan_reuse_deterministic(self, plan_small, signal_small):
        a = sfft(signal_small.time, plan=plan_small)
        b = sfft(signal_small.time, plan=plan_small)
        assert (a.locations == b.locations).all()
        assert np.array_equal(a.values, b.values)

    def test_profile_records_all_steps(self, plan_small, signal_small):
        res = sfft(signal_small.time, plan=plan_small, tracer=Tracer())
        assert set(res.step_times) == set(STEP_NAMES)
        assert all(t >= 0 for t in res.step_times.values())

    def test_no_profile_no_times(self, plan_small, signal_small):
        assert sfft(signal_small.time, plan=plan_small).step_times is None

    def test_requires_k_or_plan(self, signal_small):
        with pytest.raises(ParameterError):
            sfft(signal_small.time)

    def test_unknown_binning(self, plan_small, signal_small):
        with pytest.raises(ParameterError):
            sfft(signal_small.time, plan=plan_small, binning="quantum")

    def test_single_call_uses_workspace_scratch(self):
        # One call folds into the workspace's resident (L, B) matrix and
        # votes into its resident length-n scores; allocating either per
        # call would cost the large transforms their memory bound.
        sig = make_sparse_signal(4096, 8, seed=30)
        plan = make_plan(4096, 8, seed=31)
        ws = plan.workspace()
        res = sfft(sig.time, plan=plan)
        np.testing.assert_array_equal(ws.scores[res.locations], res.votes)
        assert np.count_nonzero(ws.scores) >= res.k_found
        np.testing.assert_array_equal(
            ws.raw, ws.bin_fused_stack(sig.time[None])[0]
        )

    def test_signal_length_must_match_plan(self, plan_small):
        with pytest.raises(ParameterError):
            sfft(np.zeros(512, complex), plan=plan_small)

    def test_trim_to_k(self, plan_small, signal_small):
        res = sfft(signal_small.time, plan=plan_small)
        assert res.k_found <= plan_small.k

    def test_non_sparse_input_degrades_gracefully(self):
        rng = np.random.default_rng(64)
        res = sfft(rng.standard_normal(1 << 12), 6, seed=65)
        assert res.k_found >= 0  # degrades gracefully, no exception

    def test_fast_profile_is_a_derivation_override(self):
        # profile= names the filter-design profile only: a plan-less call
        # derives (and caches) the fast plan and does not turn on tracing.
        sig = make_sparse_signal(4096, 8, seed=32)
        res = sfft(sig.time, 8, seed=33, profile="fast")
        assert res.step_times is None and res.trace is None
        cache = global_plan_cache()
        hits = cache.hits
        plan = cached_plan(4096, 8, seed=33, profile="fast")
        assert cache.hits == hits + 1
        assert plan.params.tolerance == 1e-6
        again = sfft(sig.time, plan=plan)
        np.testing.assert_array_equal(res.locations, again.locations)
        np.testing.assert_array_equal(res.values, again.values)
        X = np.stack([sig.time, sig.time])
        for got, want in zip(sfft_batch(X, 8, seed=33, profile="fast"),
                             sfft_batch(X, plan=plan)):
            np.testing.assert_array_equal(got.locations, want.locations)
            np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("key,value", [("no_such", 1), ("strict", True)])
    @pytest.mark.parametrize("with_plan", [False, True],
                             ids=["planless", "plan"])
    @pytest.mark.parametrize("entry", [sfft, sfft_batch],
                             ids=["sfft", "sfft_batch"])
    def test_unknown_option_is_a_parameter_error(self, entry, with_plan,
                                                 key, value):
        # Any key that is not a derivation override (``strict`` among
        # them) is named as unknown on both paths, before any plan-cache
        # traffic.
        sig = make_sparse_signal(1024, 4, seed=34)
        x = sig.time if entry is sfft else np.stack([sig.time, sig.time])
        plan = make_plan(1024, 4, seed=35) if with_plan else None
        cache = global_plan_cache()
        traffic = (cache.hits, cache.misses)
        with pytest.raises(ParameterError,
                           match=rf"unknown options \['{key}'\]"):
            if with_plan:
                entry(x, plan=plan, **{key: value})
            else:
                entry(x, 4, seed=36, **{key: value})
        assert (cache.hits, cache.misses) == traffic


class TestSparseFFTResult:
    def test_to_dense_roundtrip(self):
        res = SparseFFTResult(
            n=16,
            locations=np.array([2, 5]),
            values=np.array([1 + 0j, 2j]),
            votes=np.array([4, 4]),
        )
        dense = res.to_dense()
        assert dense[2] == 1 and dense[5] == 2j and np.count_nonzero(dense) == 2

    def test_top_keeps_largest(self):
        res = SparseFFTResult(
            n=16,
            locations=np.array([1, 2, 3]),
            values=np.array([1.0, 10.0, 5.0], dtype=complex),
            votes=np.array([4, 4, 4]),
        )
        top = res.top(2)
        assert set(top.locations.tolist()) == {2, 3}

    def test_top_noop_when_k_large(self):
        res = SparseFFTResult(
            n=16,
            locations=np.array([1]),
            values=np.array([1.0 + 0j]),
            votes=np.array([4]),
        )
        assert res.top(5) is res

    def test_reconstruct_time_inverts(self):
        sig = make_sparse_signal(512, 3, seed=21)
        res = sfft(sig.time, 3, seed=22)
        back = reconstruct_time(res.locations, res.values, 512)
        assert np.abs(back - sig.time).max() < 1e-6 * np.abs(sig.time).max()

    def test_reconstruct_time_shape_check(self):
        with pytest.raises(ParameterError):
            reconstruct_time(np.array([1, 2]), np.array([1.0 + 0j]), 16)

    def test_dense_topk_validates(self):
        with pytest.raises(ParameterError):
            dense_topk(np.zeros(8), 0)
        with pytest.raises(ParameterError):
            dense_topk(np.zeros((2, 4)), 1)
