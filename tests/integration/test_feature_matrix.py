"""Feature-matrix test: exact recovery must hold across the cross product of
user-facing options — windows, profiles, cutoffs, and loop splits.  A
release-blocking grid.

The CPU pipeline always selects top-k; the fast k-selection cutoff
(Algorithm 6) lives in the GPU model, so the ``threshold`` cells run the
optimized :class:`~repro.gpu.CusFFT`, whose cutoff is that kernel."""

import itertools

import numpy as np
import pytest

from repro.core import make_plan, sfft
from repro.gpu import OPTIMIZED, CusFFT
from repro.signals import make_sparse_signal

N, K = 1 << 13, 8

WINDOWS = ("dolph-chebyshev", "gaussian")
PROFILES = ("accurate", "fast")
CUTOFFS = ("topk", "threshold")


@pytest.fixture(scope="module")
def signal():
    return make_sparse_signal(N, K, seed=7, min_separation=N // (8 * K))


@pytest.mark.parametrize(
    "window,profile,cutoff",
    list(itertools.product(WINDOWS, PROFILES, CUTOFFS)),
)
def test_recovery_across_option_grid(signal, window, profile, cutoff):
    if cutoff == "topk":
        plan = make_plan(N, K, seed=11, window=window, profile=profile)
        res = sfft(signal.time, plan=plan)
    else:
        gpu = CusFFT.create(N, K, config=OPTIMIZED, window=window,
                            profile=profile)
        res = gpu.execute(signal.time, seed=11).result
    assert set(res.locations.tolist()) == set(signal.locations.tolist())
    for f, v in res.as_dict().items():
        truth = signal.values[list(signal.locations).index(f)]
        tol = 1e-4 if profile == "fast" else 1e-6
        assert abs(v - truth) < tol * abs(truth)


@pytest.mark.parametrize("loc_loops", [None, 3])
def test_recovery_with_loop_splits(signal, loc_loops):
    plan = make_plan(N, K, seed=13, loops=6, loc_loops=loc_loops)
    res = sfft(signal.time, plan=plan)
    assert set(res.locations.tolist()) == set(signal.locations.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_recovery_across_plan_seeds(signal, seed):
    """The permutation schedule is random; recovery must not depend on it."""
    plan = make_plan(N, K, seed=1000 + seed)
    res = sfft(signal.time, plan=plan)
    assert set(res.locations.tolist()) == set(signal.locations.tolist())


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
def test_input_dtypes_accepted(dtype):
    sig = make_sparse_signal(1 << 12, 4, seed=3)
    x = sig.time.astype(dtype) if dtype != np.float64 else sig.time.real
    res = sfft(np.ascontiguousarray(x), 8 if dtype == np.float64 else 4, seed=4)
    assert res.k_found >= 1
