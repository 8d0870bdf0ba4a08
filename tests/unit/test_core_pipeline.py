"""Unit tests for the sFFT pipeline stages: permutation, binning, subsampled
FFT, cutoff, recovery, estimation."""

import numpy as np
import pytest

from repro.core import (
    Permutation,
    VoteAccumulator,
    bin_loop_partition,
    bin_serial,
    bin_vectorized,
    bucket_fft,
    candidate_frequencies,
    cutoff,
    estimate_values,
    loop_estimates,
    noise_floor_threshold,
    permute_dense,
    permuted_indices,
    random_permutation,
    recover_locations,
    recover_locations_stack,
    select_threshold,
    select_topk,
    subsample_spectrum,
)
from repro.errors import ParameterError
from repro.signals import make_sparse_signal


class TestPermutation:
    def test_definition1_spectral_identity(self):
        # The core claim: y[i] = x[(sigma*i+tau)%n]  =>
        # fft(y)[sigma*f] = fft(x)[f] * exp(2j*pi*tau*f/n).
        n = 256
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        perm = random_permutation(n, rng)
        y = permute_dense(x, perm)
        xh, yh = np.fft.fft(x), np.fft.fft(y)
        f = np.arange(n)
        lhs = yh[(perm.sigma * f) % n]
        rhs = xh * np.exp(2j * np.pi * perm.tau * f / n)
        assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(xh).max()

    def test_source_and_permuted_frequency_inverse(self):
        perm = random_permutation(1024, np.random.default_rng(1))
        f = np.arange(0, 1024, 37)
        assert (perm.source_frequency(perm.permuted_frequency(f)) == f).all()

    def test_permuted_indices_match_recurrence(self):
        perm = Permutation(n=64, sigma=5, sigma_inv=13, tau=7)
        idx = permuted_indices(perm, 10)
        v, expect = 7, []
        for _ in range(10):
            expect.append(v)
            v = (v + 5) % 64
        assert idx.tolist() == expect

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ParameterError):
            Permutation(n=64, sigma=4, sigma_inv=1, tau=0)

    def test_wrong_inverse_rejected(self):
        with pytest.raises(ParameterError):
            Permutation(n=64, sigma=5, sigma_inv=5, tau=0)

    def test_tau_range_checked(self):
        with pytest.raises(ParameterError):
            Permutation(n=64, sigma=5, sigma_inv=13, tau=64)

    def test_permute_dense_length_check(self):
        perm = random_permutation(64, np.random.default_rng(2))
        with pytest.raises(ParameterError):
            permute_dense(np.zeros(32), perm)

    def test_phase_correction_unit_modulus(self):
        perm = random_permutation(64, np.random.default_rng(3))
        ph = perm.phase_correction(np.arange(64))
        assert np.abs(np.abs(ph) - 1).max() < 1e-12


class TestBinning:
    def test_three_formulations_identical(self, plan_small, signal_small):
        for perm in plan_small.permutations[:3]:
            a = bin_serial(signal_small.time, plan_small.filt, plan_small.B, perm)
            b = bin_vectorized(signal_small.time, plan_small.filt, plan_small.B, perm)
            c = bin_loop_partition(
                signal_small.time, plan_small.filt, plan_small.B, perm
            )
            assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(a).max())
            assert np.abs(a - c).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_fold_subsample_identity(self, plan_small, signal_small):
        # fft_B(buckets) == fft_n(filtered permuted signal)[:: n/B]
        n, B = plan_small.n, plan_small.B
        perm = plan_small.permutations[0]
        y = np.zeros(n, dtype=complex)
        idx = permuted_indices(perm, plan_small.filt.width)
        y[: plan_small.filt.width] = (
            signal_small.time[idx] * plan_small.filt.time
        )
        dense = np.fft.fft(y)
        buckets = bin_vectorized(signal_small.time, plan_small.filt, B, perm)
        assert np.abs(bucket_fft(buckets) - subsample_spectrum(dense, B)).max() < (
            1e-9 * np.abs(dense).max()
        )

    def test_length_mismatch_rejected(self, plan_small):
        with pytest.raises(ParameterError):
            bin_vectorized(
                np.zeros(17, complex), plan_small.filt, plan_small.B,
                plan_small.permutations[0],
            )

    def test_bad_bucket_count_rejected(self, plan_small, signal_small):
        with pytest.raises(ParameterError):
            bin_vectorized(
                signal_small.time, plan_small.filt, 3, plan_small.permutations[0]
            )


class TestSubsampled:
    def test_batched_matches_rowwise(self, rng):
        rows = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        batched = bucket_fft(rows)
        for r in range(4):
            assert np.allclose(batched[r], np.fft.fft(rows[r]))

    def test_rejects_3d(self):
        with pytest.raises(ParameterError):
            bucket_fft(np.zeros((2, 2, 2)))

    def test_subsample_requires_divisor(self):
        with pytest.raises(ParameterError):
            subsample_spectrum(np.zeros(10), 3)


class TestCutoff:
    def test_topk_exact(self):
        mags = np.array([1.0, 9.0, 3.0, 7.0, 5.0])
        assert set(select_topk(mags, 2).tolist()) == {1, 3}

    def test_topk_full(self):
        assert select_topk(np.arange(4.0), 4).tolist() == [0, 1, 2, 3]

    def test_topk_bounds(self):
        with pytest.raises(ParameterError):
            select_topk(np.arange(4.0), 0)
        with pytest.raises(ParameterError):
            select_topk(np.arange(4.0), 5)

    def test_threshold_selects_above(self):
        mags = np.array([0.1, 5.0, 0.2, 7.0])
        assert set(select_threshold(mags, 1.0).tolist()) == {1, 3}

    def test_threshold_cap_keeps_largest(self):
        mags = np.array([2.0, 5.0, 3.0, 7.0])
        got = select_threshold(mags, 1.0, cap=2)
        assert set(got.tolist()) == {1, 3}

    def test_noise_floor_threshold_ignores_signal(self):
        mags = np.concatenate([np.full(100, 1.0), [1000.0, 2000.0]])
        thr = noise_floor_threshold(mags, factor=4.0)
        assert thr == pytest.approx(4.0)

    def test_cutoff_threshold_falls_back_to_topk(self):
        # Threshold too high -> fewer than m survivors -> topk fallback.
        mags = np.full(64, 1.0)
        got = cutoff(mags, 4, method="threshold")
        assert got.size == 4

    def test_cutoff_unknown_method(self):
        with pytest.raises(ParameterError):
            cutoff(np.arange(4.0), 2, method="bogus")

    def test_cutoff_separates_signal_from_noise(self, rng):
        mags = np.abs(rng.standard_normal(512)) * 0.01
        signal_buckets = rng.choice(512, 8, replace=False)
        mags[signal_buckets] = 10.0
        got = cutoff(mags, 8, method="threshold")
        assert set(signal_buckets.tolist()) <= set(got.tolist())


class TestRecovery:
    def test_candidate_region_contains_true_frequency(self):
        n, B = 1024, 64
        rng = np.random.default_rng(5)
        for _ in range(20):
            perm = random_permutation(n, rng)
            f = int(rng.integers(0, n))
            p = (f * perm.sigma) % n
            # Round-half-up to the nearest bucket centre — the same integer
            # convention estimation uses (banker's rounding would disagree
            # exactly on the half-bucket boundary).
            bucket = ((p + (n // B) // 2) // (n // B)) % B
            cands = candidate_frequencies(np.array([bucket]), perm, B)
            assert f in set(cands.tolist())

    def test_votes_accumulate_across_loops(self):
        n, B = 256, 16
        rng = np.random.default_rng(6)
        perms = [random_permutation(n, rng) for _ in range(5)]
        f = 37
        selected = []
        for perm in perms:
            p = (f * perm.sigma) % n
            selected.append(np.array([((p + (n // B) // 2) // (n // B)) % B]))
        hits, votes = recover_locations(selected, perms, B, vote_threshold=5)
        assert f in set(hits.tolist())
        assert votes[list(hits).index(f)] == 5

    def test_duplicate_candidates_within_loop_vote_once(self):
        acc = VoteAccumulator(32)
        acc.add_loop_votes(np.array([3, 3, 3]))
        assert acc.scores[3] == 1

    def test_empty_candidates_noop(self):
        acc = VoteAccumulator(8)
        acc.add_loop_votes(np.empty(0, dtype=np.int64))
        assert acc.scores.sum() == 0

    def test_hits_threshold_validated(self):
        with pytest.raises(ParameterError):
            VoteAccumulator(8).hits(0)

    def test_mismatched_loops_rejected(self):
        perm = random_permutation(64, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            recover_locations([np.array([0])], [perm, perm], 8, 1)

    def test_bucket_out_of_range_rejected(self):
        perm = random_permutation(64, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            candidate_frequencies(np.array([99]), perm, 8)


def _oracle_votes(selected, perms, B, threshold):
    """Per-loop candidate dedupe: the formulation bucket dedupe replaces."""
    acc = VoteAccumulator(perms[0].n)
    for sel, perm in zip(selected, perms):
        acc.add_loop_votes(candidate_frequencies(sel, perm, B))
    hits = acc.hits(threshold)
    return hits, acc.scores[hits].astype(np.int64)


class TestVotingOracle:
    """Bucket-level dedupe votes exactly like per-loop candidate dedupe."""

    LOOPS = 5

    @staticmethod
    def _selected(rng, B, loops):
        """Per-loop buckets with repeats, a ``J, J+1`` pair and ``0, B-1``."""
        rows = []
        for _ in range(loops):
            J = int(rng.integers(1, B - 2))
            extra = rng.integers(0, B, size=4)
            rows.append(np.array(
                [J, J + 1, J, 0, B - 1, B - 1, *extra.tolist()],
                dtype=np.int64,
            ))
        return rows

    @pytest.mark.parametrize("n, B", [(1024, 32), (768, 24)],
                             ids=["pow2", "non-pow2"])
    @pytest.mark.parametrize("reuse", [False, True],
                             ids=["plain", "scores_out"])
    def test_matches_per_loop_candidate_dedupe(self, n, B, reuse):
        rng = np.random.default_rng(n + B)
        S = 3
        perms = [random_permutation(n, rng) for _ in range(self.LOOPS)]
        selected = [self._selected(rng, B, self.LOOPS) for _ in range(S)]
        # A reused score buffer arrives dirty and must be zeroed first.
        scores = np.full(S * n, 7, dtype=np.int16) if reuse else None
        stack_hits, stack_votes = recover_locations_stack(
            selected, perms, B, 2, scores_out=scores
        )
        for s in range(S):
            want_hits, want_votes = _oracle_votes(selected[s], perms, B, 2)
            assert want_hits.size > 0
            assert want_votes.max() > 1
            hits, votes = recover_locations(
                selected[s], perms, B, 2,
                scores_out=np.full(n, 7, dtype=np.int16) if reuse else None,
            )
            np.testing.assert_array_equal(hits, want_hits)
            np.testing.assert_array_equal(votes, want_votes)
            np.testing.assert_array_equal(stack_hits[s], want_hits)
            np.testing.assert_array_equal(stack_votes[s], want_votes)

    @pytest.mark.parametrize("n, B", [(1024, 32), (768, 24)],
                             ids=["pow2", "non-pow2"])
    def test_candidates_match_closed_form(self, n, B):
        rng = np.random.default_rng(7)
        perm = random_permutation(n, rng)
        J = np.array([0, 1, 5, B - 1])
        low = J * (n // B) - (n // B) // 2
        permuted = (low[:, None] + np.arange(n // B)) % n
        want = ((permuted * perm.sigma_inv) % n).ravel()
        got = candidate_frequencies(J, perm, B)
        np.testing.assert_array_equal(got, want)
        # Distinct buckets own disjoint regions: no candidate repeats.
        assert np.unique(got).size == got.size

    def test_stack_rejects_out_of_range_buckets(self):
        perm = random_permutation(64, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            recover_locations_stack([[np.array([8])], [np.array([0])]],
                                    [perm], 8, 1)


class TestEstimation:
    def test_one_sparse_exact(self):
        # A single coefficient must be reconstructed essentially exactly.
        n, k = 4096, 1
        sig = make_sparse_signal(n, 1, seed=11)
        from tests.conftest import cached_plan

        plan = cached_plan(n, k)
        rows = np.empty((plan.loops, plan.B), dtype=complex)
        for r, perm in enumerate(plan.permutations):
            rows[r] = bin_vectorized(sig.time, plan.filt, plan.B, perm)
        rows = bucket_fft(rows)
        vals = estimate_values(
            sig.locations, rows, list(plan.permutations), plan.filt, plan.B
        )
        assert abs(vals[0] - sig.values[0]) < 1e-6 * abs(sig.values[0])

    def test_loop_estimates_shape(self, plan_small, signal_small):
        rows = np.empty((plan_small.loops, plan_small.B), dtype=complex)
        for r, perm in enumerate(plan_small.permutations):
            rows[r] = bin_vectorized(
                signal_small.time, plan_small.filt, plan_small.B, perm
            )
        rows = bucket_fft(rows)
        est = loop_estimates(
            signal_small.locations, rows, list(plan_small.permutations),
            plan_small.filt, plan_small.B,
        )
        assert est.shape == (signal_small.k, plan_small.loops)

    def test_empty_frequencies(self, plan_small):
        rows = np.zeros((plan_small.loops, plan_small.B), dtype=complex)
        vals = estimate_values(
            np.empty(0, dtype=np.int64), rows, list(plan_small.permutations),
            plan_small.filt, plan_small.B,
        )
        assert vals.size == 0

    def test_frequency_out_of_range(self, plan_small):
        rows = np.zeros((plan_small.loops, plan_small.B), dtype=complex)
        with pytest.raises(ParameterError):
            estimate_values(
                np.array([plan_small.n]), rows, list(plan_small.permutations),
                plan_small.filt, plan_small.B,
            )

    def test_wrong_row_shape(self, plan_small):
        with pytest.raises(ParameterError):
            estimate_values(
                np.array([0]), np.zeros((2, 3), complex),
                list(plan_small.permutations), plan_small.filt, plan_small.B,
            )
