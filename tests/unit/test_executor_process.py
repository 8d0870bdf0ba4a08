"""Process-mode executor: crash semantics, teardown, start-method identity.

Thread-mode behavior (metrics family, span DAG, shard geometry) is
pinned by ``test_executor.py``; the property matrix covers bit-identity
in both modes.  This module covers what is *specific* to
the shared-memory process pool: a SIGKILL'd worker must surface as a
clean :class:`~repro.errors.ExecutorError` with every segment unlinked
and the failure metered; the pool must recover on the next run; seeded
Comb masks must be identical under fork and forkserver; and the merged
telemetry must carry the same span DAG shape thread mode produces.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import ShardedExecutor, sfft_batch_fused
from repro.core.executor import EXECUTOR_TRACK, MODE_ENV
from repro.errors import ExecutorError, ParameterError
from repro.obs import MetricsRegistry, Tracer
from repro.signals import make_sparse_signal
from tests.conftest import cached_plan

_N, _K, _S = 2048, 4, 7


@pytest.fixture(scope="module")
def plan():
    return cached_plan(_N, _K)


@pytest.fixture(scope="module")
def stack():
    return np.stack([
        make_sparse_signal(_N, _K, seed=40 + t).time for t in range(_S)
    ])


def _shm_entries():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs host
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith("sfft")]


@pytest.fixture(autouse=True)
def no_leaks():
    before = _shm_entries()
    yield
    leaked = [f for f in _shm_entries() if f not in before]
    assert not leaked, f"test leaked shared-memory segments: {leaked}"


def _assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.locations, w.locations)
        np.testing.assert_array_equal(g.values, w.values)
        np.testing.assert_array_equal(g.votes, w.votes)


class TestModeSurface:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError, match="mode"):
            ShardedExecutor(workers=2, mode="fiber")

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ParameterError, match="start_method"):
            ShardedExecutor(workers=2, mode="process", start_method="warp")

    def test_repr_names_the_mode(self):
        assert "mode='process'" in repr(
            ShardedExecutor(workers=2, mode="process")
        )

    def test_env_default_mode(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "process")
        assert ShardedExecutor(workers=2).mode == "process"
        monkeypatch.delenv(MODE_ENV)
        assert ShardedExecutor(workers=2).mode == "thread"


class TestProcessTelemetry:
    def test_span_dag_matches_thread_shape(self, stack, plan):
        tracer = Tracer()
        registry = MetricsRegistry()
        ex = ShardedExecutor(workers=2, shard_size=2, mode="process")
        out = ex.run(stack, plan, tracer=tracer, metrics=registry)
        _assert_identical(out, sfft_batch_fused(stack, plan))

        spans = tracer.spans
        root = [s for s in spans if s.name == "executor.run"]
        assert len(root) == 1 and root[0].track == EXECUTOR_TRACK
        assert root[0].attrs["mode"] == "process"

        shard_spans = [s for s in spans
                       if s.name.startswith("shard") and "." not in s.name]
        assert len(shard_spans) == 4
        assert sum(s.attrs["signals"] for s in shard_spans) == _S
        assert {s.track for s in shard_spans} <= {"worker0", "worker1"}
        for s in shard_spans:
            assert s.attrs["parent"] == "executor.run"
            assert s.attrs["queue_wait_s"] >= 0.0

        stage_spans = [s for s in spans
                       if s.name.startswith("shard") and "." in s.name]
        stages = {s.name.split(".", 1)[1] for s in stage_spans}
        assert stages == {"perm_filter", "bucket_fft", "cutoff",
                          "recovery", "estimation"}
        for s in stage_spans:
            assert s.depth == 1
            assert s.attrs["parent"] == s.name.split(".", 1)[0]

        snap = registry.snapshot()
        assert snap["sfft.executor.workers"]["value"] == 2
        assert snap["sfft.executor.shards"]["value"] == 4
        assert snap["sfft.executor.shm_bytes"]["value"] > 0

class TestWorkerCrash:
    def test_killed_worker_is_a_clean_error(self, stack, plan, monkeypatch):
        registry = MetricsRegistry()
        ex = ShardedExecutor(workers=2, shard_size=2, mode="process")
        monkeypatch.setenv("REPRO_EXECUTOR_KILL_SHARD", "1")
        with pytest.raises(ExecutorError, match="worker process died"):
            ex.run(stack, plan, metrics=registry)
        snap = registry.snapshot()
        assert snap["sfft.executor.worker_failures"]["value"] >= 1
        # Segments are unlinked before the error propagates (the autouse
        # fixture re-checks after teardown).
        assert not _shm_entries()

    def test_pool_recovers_after_crash(self, stack, plan, monkeypatch):
        ex = ShardedExecutor(workers=2, shard_size=2, mode="process")
        monkeypatch.setenv("REPRO_EXECUTOR_KILL_SHARD", "0")
        with pytest.raises(ExecutorError):
            ex.run(stack, plan)
        monkeypatch.delenv("REPRO_EXECUTOR_KILL_SHARD")
        # The broken pool was discarded; a fresh one serves the next run.
        _assert_identical(ex.run(stack, plan), sfft_batch_fused(stack, plan))

    def test_poisoned_cached_pool_is_replaced_transparently(self, stack,
                                                            plan):
        # Break the cached pool behind the executor's back (what an
        # OOM-killed idle worker, or a crash racing a previous run's
        # submit loop, leaves behind).  The next run must detect the
        # submit-time breakage, discard the poisoned pool, and retry on
        # a fresh one — not surface a raw BrokenProcessPool.
        import time

        from repro.core.executor import _process_pool

        ex = ShardedExecutor(workers=2, shard_size=2, mode="process")
        pool = _process_pool(2, ex.start_method)
        pool.submit(os.getpid).result()  # workers definitely up
        for proc in list(pool._processes.values()):
            proc.kill()
        deadline = time.monotonic() + 10.0
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken, "pool never noticed its killed workers"

        registry = MetricsRegistry()
        out = ex.run(stack, plan, metrics=registry)
        _assert_identical(out, sfft_batch_fused(stack, plan))
        snap = registry.snapshot()
        assert snap["sfft.executor.worker_failures"]["value"] >= 1


class TestStartMethodDeterminism:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_fork_and_forkserver_agree_on_seeded_comb(self, stack, plan):
        # Comb masks are Generator-seeded and built in the parent; both
        # start methods must yield the bit-identical serial-engine masks
        # and therefore bit-identical results.
        kwargs = dict(comb_width=_N >> 4, seed=123)
        serial = sfft_batch_fused(stack, plan, **kwargs)
        for start_method in ("fork", "forkserver"):
            ex = ShardedExecutor(
                workers=2, shard_size=2, mode="process",
                start_method=start_method,
            )
            _assert_identical(ex.run(stack, plan, **kwargs), serial)
