"""Property-based tests for the extension layers: Thrust primitives, cuFFT
plans, and the SIMT interpreter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cufft import CufftPlan
from repro.cusim import KEPLER_K20X, simt_run, sort_by_key

DEV = KEPLER_K20X


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=100),
    st.booleans(),
)
def test_sort_by_key_is_a_permutation_and_ordered(values, descending):
    keys = np.asarray(values)
    payload = np.arange(keys.size)
    (sk, sv), _ = sort_by_key(keys, payload, descending=descending)
    # Payload is a permutation and keys are ordered.
    assert sorted(sv.tolist()) == payload.tolist()
    diffs = np.diff(sk)
    assert (diffs <= 1e-12).all() if descending else (diffs >= -1e-12).all()
    # Keys still pair with their original payload.
    assert np.allclose(keys[sv], sk)


@given(
    st.integers(min_value=4, max_value=12).map(lambda p: 1 << p),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_cufft_batched_matches_rowwise(logn_pow, batch, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch, logn_pow)) + 1j * rng.standard_normal(
        (batch, logn_pow)
    )
    plan = CufftPlan(logn_pow, batch=batch)
    out = plan.execute(data)
    for r in range(batch):
        assert np.allclose(out[r], np.fft.fft(data[r]))
    # Inverse round-trips.
    assert np.allclose(plan.inverse(out), data, atol=1e-9)


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_simt_copy_kernel_invariants(threads, seed):
    rng = np.random.default_rng(seed)
    src = rng.standard_normal(threads)

    def kernel(w, a, b):
        w.store(b, w.tid, w.load(a, w.tid))

    report, (_, out) = simt_run(kernel, threads, DEV, src, np.zeros(threads))
    assert np.array_equal(out.data, src)
    assert report.loads == threads and report.stores == threads
    # Transactions bounded by [per-warp minimum, per-element maximum].
    warps = -(-threads // DEV.warp_size)
    assert 2 * warps <= report.transactions <= 2 * threads
    assert report.lane_utilization == 1.0
