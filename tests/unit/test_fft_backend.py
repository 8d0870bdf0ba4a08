"""Unit tests: the FFT backend registry and its resolution rules.

The registry is the vendor seam every dense FFT goes through, so its
failure modes are contractual: explicit unknown names must raise, ambient
misconfiguration (env var, missing optional dependency) must fall back to
numpy with a logged warning, and resolution order must be explicit name >
process default > environment > numpy.  The backend is a process setting,
so the process-mode executor's workers must run the parent's.
"""

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro.core import ShardedExecutor, make_plan
from repro.core.executor import _process_pool
from repro.core.fft_backend import (
    ENV_VAR,
    FftBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backends,
    set_default_backend,
)
from repro.core.shm import (
    SegmentBundle,
    describe_plan,
    plan_shared_arrays,
    worker_cache_clear,
    worker_lease,
)
from repro.errors import ParameterError
from repro.signals import make_sparse_signal


@pytest.fixture(autouse=True)
def clean_registry_state(monkeypatch):
    """Isolate default-backend and env-var state; drop test registrations."""
    import repro.core.fft_backend as mod

    monkeypatch.delenv(ENV_VAR, raising=False)
    set_default_backend(None)
    before = set(registered_backends())
    yield
    set_default_backend(None)
    with mod._lock:
        for name in set(mod._factories) - before:
            mod._factories.pop(name, None)
            mod._instances.pop(name, None)


def test_numpy_always_registered_and_default():
    assert "numpy" in registered_backends()
    assert "numpy" in available_backends()
    assert default_backend_name() == "numpy"
    assert get_backend().name == "numpy"


def test_builtin_backends_registered():
    names = registered_backends()
    assert {"numpy", "scipy", "pyfftw"} <= set(names)
    assert names == sorted(names)


def test_unknown_explicit_name_raises():
    with pytest.raises(ParameterError, match="unknown FFT backend"):
        get_backend("no-such-backend")
    with pytest.raises(ParameterError, match="unknown FFT backend"):
        set_default_backend("no-such-backend")


def test_unknown_env_var_falls_back_with_warning(monkeypatch, caplog):
    monkeypatch.setenv(ENV_VAR, "no-such-backend")
    with caplog.at_level(logging.WARNING, logger="repro.core.fft_backend"):
        backend = get_backend()
    assert backend.name == "numpy"
    assert any("not a registered FFT backend" in r.message
               for r in caplog.records)


def test_missing_optional_dep_falls_back_with_warning(caplog):
    def broken_factory():
        raise ImportError("synthetic missing dependency")

    register_backend("broken-dep", broken_factory)
    assert "broken-dep" in registered_backends()
    assert "broken-dep" not in available_backends()
    with caplog.at_level(logging.WARNING, logger="repro.core.fft_backend"):
        backend = get_backend("broken-dep")
    assert backend.name == "numpy"
    assert any("falling back to numpy" in r.message for r in caplog.records)


def test_resolution_order_explicit_beats_default_beats_env(monkeypatch):
    class Tagged(FftBackend):
        def __init__(self, tag):
            self.name = tag

        def fft(self, a, *, axis=-1, workers=1):
            return np.fft.fft(a, axis=axis)

    register_backend("via-env", lambda: Tagged("via-env"))
    register_backend("via-default", lambda: Tagged("via-default"))
    register_backend("via-explicit", lambda: Tagged("via-explicit"))

    monkeypatch.setenv(ENV_VAR, "via-env")
    assert get_backend().name == "via-env"

    assert set_default_backend("via-default") == "via-default"
    assert get_backend().name == "via-default"

    assert get_backend("via-explicit").name == "via-explicit"

    set_default_backend(None)
    assert get_backend().name == "via-env"


def test_register_duplicate_requires_replace():
    register_backend("dup", lambda: _tagged("dup-one"))
    with pytest.raises(ParameterError, match="already registered"):
        register_backend("dup", lambda: _tagged("dup-two"))
    register_backend("dup", lambda: _tagged("dup-two"), replace=True)
    assert get_backend("dup").name == "dup-two"


def test_register_rejects_bad_names():
    with pytest.raises(ParameterError):
        register_backend("", lambda: _tagged("x"))
    with pytest.raises(ParameterError):
        register_backend(None, lambda: _tagged("x"))


def test_available_backends_agree_with_numpy(rng):
    """Every importable backend computes the same DFT (pocketfft twins
    are bit-identical; all must agree to float tolerance)."""
    a = (rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64)))
    want = np.fft.fft(a, axis=-1)
    for name in available_backends():
        got = get_backend(name).fft(a, axis=-1, workers=2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                   err_msg=f"backend {name} diverged")


def test_scipy_backend_bit_identical_when_available(rng):
    if "scipy" not in available_backends():
        pytest.skip("scipy not installed")
    a = (rng.standard_normal((8, 128))
         + 1j * rng.standard_normal((8, 128)))
    np.testing.assert_array_equal(
        get_backend("scipy").fft(a), np.fft.fft(a, axis=-1)
    )
    np.testing.assert_array_equal(
        get_backend("scipy").fft(a, workers=2), np.fft.fft(a, axis=-1)
    )


def test_set_default_backend_reports_resolved_name():
    def broken_factory():
        raise ImportError("synthetic missing dependency")

    register_backend("broken-resolved", broken_factory)
    # The *requested* default is broken, so the resolved name is numpy —
    # exactly what the CLI echoes in the run record.
    assert set_default_backend("broken-resolved") == "numpy"


def _tagged(tag):
    class Tagged(FftBackend):
        name = tag

        def fft(self, a, *, axis=-1, workers=1):
            return np.fft.fft(a, axis=axis)

    return Tagged()


# -- process workers follow the parent's backend ------------------------------

@pytest.fixture
def scipy_default():
    if "scipy" not in available_backends():
        pytest.skip("scipy not installed")
    set_default_backend("scipy")  # clean_registry_state resets it


@pytest.fixture
def small_plan():
    return make_plan(1024, 4, seed=17)


def test_descriptor_carries_the_parent_backend(scipy_default, small_plan):
    arrays = plan_shared_arrays(small_plan, small_plan.workspace())
    with SegmentBundle.create(arrays, label="sfft-plan") as bundle:
        desc = describe_plan(small_plan, bundle.specs)
    assert desc.fft_backend == "scipy"


def test_worker_lease_binds_the_descriptor_backend(small_plan):
    if "scipy" not in available_backends():
        pytest.skip("scipy not installed")
    arrays = plan_shared_arrays(small_plan, small_plan.workspace())
    with SegmentBundle.create(arrays, label="sfft-plan") as bundle:
        desc = describe_plan(small_plan, bundle.specs)
        assert desc.fft_backend == "numpy"
        try:
            worker_lease(replace(desc, fft_backend="scipy"))
            assert default_backend_name() == "scipy"
            # A cached lease still rebinds when the parent switches back.
            worker_lease(replace(desc, fft_backend="numpy"))
            assert default_backend_name() == "numpy"
        finally:
            worker_cache_clear()


def test_process_workers_run_the_parent_backend(scipy_default, small_plan):
    X = np.stack([
        make_sparse_signal(1024, 4, seed=40 + t).time for t in range(2)
    ])
    ShardedExecutor(workers=1, mode="process").run(X, small_plan)
    # The pool's one worker ran every shard; ask it what it resolves now.
    worker = _process_pool(1, "forkserver").submit(default_backend_name)
    assert worker.result() == "scipy"
