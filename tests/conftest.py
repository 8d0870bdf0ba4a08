"""Shared fixtures for the repro test suite.

Plans are the expensive artifact (filter synthesis runs a chirp-z
transform of about ``w + 4n/B`` points over the ``w`` taps), so a
session-scoped cache hands identical plans to every test that asks for the
same shape — tests must therefore treat plans as immutable (they are frozen
dataclasses, so mutation raises anyway).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SfftPlan, make_plan
from repro.signals import SparseSignal, make_sparse_signal

_PLAN_CACHE: dict[tuple, SfftPlan] = {}


def pytest_configure(config: pytest.Config) -> None:
    """Honor ``REPRO_CHECK_CONTRACTS=1`` for worker/subprocess-free runs.

    The ``@shape_contract`` wrappers read the environment once at import;
    re-applying it here makes enforcement deterministic even when the
    suite is driven by a runner that imported ``repro`` before setting
    the variable.  CI's static-analysis job runs tier-1 once with this
    flag on, asserting every declared contract dynamically.
    """
    import os

    from repro.analysis.staticcheck.contracts import set_enforcement

    if os.environ.get("REPRO_CHECK_CONTRACTS", "") not in ("", "0"):
        set_enforcement(True)


def cached_plan(n: int, k: int, seed: int = 1234, **overrides) -> SfftPlan:
    """Session-cached plan factory (importable from conftest)."""
    key = (n, k, seed, tuple(sorted(overrides.items())))
    if key not in _PLAN_CACHE:
        _PLAN_CACHE[key] = make_plan(n, k, seed=seed, **overrides)
    return _PLAN_CACHE[key]


@pytest.fixture(autouse=True)
def fresh_global_registry():
    """Reset the process-wide metrics registry around every test.

    Profiled runs that are not handed an explicit registry report into
    ``repro.obs.global_registry()``; without this reset, counters and
    histograms accumulated by one test would leak into the assertions of
    the next (and kind conflicts could surface in whichever test happens
    to run second).
    """
    from repro.obs import global_registry

    global_registry().reset()
    yield
    global_registry().reset()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test generator."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def plan_small() -> SfftPlan:
    """A small (n=1024, k=4) plan shared across tests."""
    return cached_plan(1024, 4)


@pytest.fixture
def plan_medium() -> SfftPlan:
    """A medium (n=8192, k=16) plan shared across tests."""
    return cached_plan(8192, 16)


@pytest.fixture
def signal_small() -> SparseSignal:
    """A 4-sparse signal matching ``plan_small``."""
    return make_sparse_signal(1024, 4, seed=77)


@pytest.fixture
def signal_medium() -> SparseSignal:
    """A 16-sparse signal matching ``plan_medium``."""
    return make_sparse_signal(8192, 16, seed=78)
