"""Property tests: the batched engine is the per-signal driver, reshaped.

``sfft_batch`` over an ``(S, n)`` stack must recover the *identical*
support (and votes) as ``sfft`` run signal by signal under the same plan,
with values matching to floating-point tolerance — across exact and noisy
inputs.  Every batched stage
is a reshape of the single-signal computation, so any divergence is a bug.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sfft, sfft_batch
from repro.signals import make_sparse_signal
from repro.signals.noise import add_awgn
from tests.conftest import cached_plan


def _stack(n, k, S, seed, snr_db):
    sigs = [make_sparse_signal(n, k, seed=seed + 7 * t) for t in range(S)]
    rows = []
    for t, sig in enumerate(sigs):
        x = sig.time
        if snr_db is not None:
            x, _ = add_awgn(x, snr_db, seed=seed + 11 * t)
        rows.append(x)
    return np.stack(rows)


def _assert_batch_matches_single(X, plan):
    batch = sfft_batch(X, plan=plan)
    assert len(batch) == X.shape[0]
    for s in range(X.shape[0]):
        single = sfft(X[s], plan=plan)
        np.testing.assert_array_equal(
            batch[s].locations, single.locations,
            err_msg=f"signal {s}: support diverged",
        )
        np.testing.assert_array_equal(
            batch[s].votes, single.votes,
            err_msg=f"signal {s}: votes diverged",
        )
        np.testing.assert_allclose(
            batch[s].values, single.values, rtol=1e-12, atol=1e-12,
            err_msg=f"signal {s}: values diverged",
        )


@given(
    logn=st.integers(min_value=10, max_value=12),
    k=st.integers(min_value=2, max_value=8),
    S=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_batch_matches_single_exact(logn, k, S, seed):
    n = 1 << logn
    plan = cached_plan(n, k)
    X = _stack(n, k, S, seed, snr_db=None)
    _assert_batch_matches_single(X, plan)


@given(
    logn=st.integers(min_value=10, max_value=12),
    k=st.integers(min_value=2, max_value=6),
    S=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    snr_db=st.sampled_from([30.0, 15.0, 5.0]),
)
@settings(max_examples=10, deadline=None)
def test_batch_matches_single_noisy(logn, k, S, seed, snr_db):
    n = 1 << logn
    plan = cached_plan(n, k)
    X = _stack(n, k, S, seed, snr_db=snr_db)
    _assert_batch_matches_single(X, plan)
