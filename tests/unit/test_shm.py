"""Shared-memory layer: descriptors, bundle lifecycle, plan round-trip.

The contract under test is the one the process-pool executor leans on:
array *descriptors* (segment name, shape, dtype, offset) — never bytes —
cross the process boundary; ``SegmentBundle.close`` unlinks always and
idempotently (no ``/dev/shm`` entry can outlive a run); views default to
read-only so a cross-process write is an immediate error; and a
``PlanDescriptor`` materializes into a plan whose derived arrays are
bit-identical to the original's.
"""

import os

import numpy as np
import pytest

from repro.core import make_plan
from repro.core.shm import (
    AttachedSegment,
    SegmentBundle,
    SharedArraySpec,
    describe_plan,
    plan_fingerprint,
    plan_shared_arrays,
    worker_cache_clear,
    worker_lease,
)
from repro.core.workspace import PlanWorkspace
from repro.errors import ParameterError


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


class TestSegmentBundle:
    def test_round_trip_and_alignment(self):
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": (np.linspace(0, 1, 33) + 2j).astype(np.complex128),
            "c": np.zeros((3, 5), dtype=np.int16),
        }
        with SegmentBundle.create(arrays, label="sfft-test") as bundle:
            assert bundle.name.startswith("sfft-test-")
            for key, arr in arrays.items():
                spec = bundle.specs[key]
                assert spec.segment == bundle.name
                assert spec.offset % 64 == 0
                assert spec.shape == arr.shape
                assert np.dtype(spec.dtype) == arr.dtype
                np.testing.assert_array_equal(bundle.view(key), arr)

    def test_views_are_read_only_by_default(self):
        with SegmentBundle.create({"x": np.arange(4)}) as bundle:
            view = bundle.view("x")
            with pytest.raises(ValueError):
                view[0] = 99
            writable = bundle.view("x", writeable=True)
            writable[0] = 99
            assert bundle.view("x")[0] == 99

    def test_close_is_idempotent_and_unlinks(self):
        bundle = SegmentBundle.create({"x": np.arange(4)})
        name = bundle.name
        assert name in _shm_entries()
        bundle.close()
        assert name not in _shm_entries()
        bundle.close()  # second close is a no-op, not an error
        with pytest.raises(ParameterError, match="closed"):
            bundle.view("x")

    def test_empty_bundle_rejected(self):
        with pytest.raises(ParameterError, match="at least one array"):
            SegmentBundle.create({})

    def test_repr_names_arrays_and_state(self):
        bundle = SegmentBundle.create({"x": np.arange(4)})
        assert "'x'" in repr(bundle)
        bundle.close()
        assert "closed" in repr(bundle)


class TestSpecsAndAttachment:
    def test_attached_view_is_zero_copy_identical(self):
        data = np.arange(100, dtype=np.complex128).reshape(10, 10)
        with SegmentBundle.create({"m": data}) as bundle:
            spec = bundle.specs["m"]
            with AttachedSegment(spec.segment) as att:
                view = att.view(spec)
                np.testing.assert_array_equal(view, data)
                assert not view.flags.writeable

    def test_attached_writes_reach_the_parent(self):
        with SegmentBundle.create({"out": np.zeros(8)}) as bundle:
            spec = bundle.specs["out"]
            with AttachedSegment(spec.segment) as att:
                att.view(spec, writeable=True)[:] = 7.0
            np.testing.assert_array_equal(bundle.view("out"), np.full(8, 7.0))

    def test_overrun_spec_is_rejected(self):
        with SegmentBundle.create({"x": np.arange(4, dtype=np.int64)}) as b:
            bad = SharedArraySpec(
                segment=b.name, shape=(1000,), dtype="<i8", offset=0
            )
            with AttachedSegment(b.name) as att:
                with pytest.raises(ParameterError, match="overruns"):
                    att.view(bad)

    def test_spec_nbytes(self):
        spec = SharedArraySpec(
            segment="s", shape=(3, 5), dtype="<c16", offset=64
        )
        assert spec.nbytes == 3 * 5 * 16


class TestPlanDescriptors:
    @pytest.fixture(scope="class")
    def plan(self):
        return make_plan(1024, 4, seed=17)

    def test_fingerprint_is_deterministic_and_plan_sensitive(self, plan):
        fp = plan_fingerprint(plan)
        assert fp == plan_fingerprint(plan)
        assert fp == plan_fingerprint(make_plan(1024, 4, seed=17))
        other = make_plan(1024, 4, seed=18)
        assert fp != plan_fingerprint(other)

    def test_worker_lease_materializes_identical_plan(self, plan):
        ws = PlanWorkspace(plan)
        arrays = plan_shared_arrays(plan, ws)
        with SegmentBundle.create(arrays, label="sfft-plan") as bundle:
            desc = describe_plan(plan, bundle.specs)
            try:
                lease = worker_lease(desc)
                assert lease.plan.params == plan.params
                for ours, theirs in zip(
                    plan.permutations, lease.plan.permutations
                ):
                    assert (ours.sigma, ours.tau) == (theirs.sigma,
                                                      theirs.tau)
                np.testing.assert_array_equal(
                    lease.plan.filt.time, plan.filt.time
                )
                np.testing.assert_array_equal(
                    lease.plan.filt.response, plan.filt.response
                )
                np.testing.assert_array_equal(
                    lease.workspace.taps_flat, ws.taps_flat
                )
                # Same descriptor -> same cached lease, no re-attach.
                assert worker_lease(desc) is lease
            finally:
                worker_cache_clear()

    def test_lease_survives_parent_unlink(self, plan):
        # POSIX keeps an unlinked segment alive for attached mappings:
        # the warm-worker cache outlives the parent's end-of-run close.
        ws = PlanWorkspace(plan)
        bundle = SegmentBundle.create(
            plan_shared_arrays(plan, ws), label="sfft-plan"
        )
        desc = describe_plan(plan, bundle.specs)
        try:
            lease = worker_lease(desc)
            bundle.close()  # name gone from /dev/shm...
            np.testing.assert_array_equal(  # ...but the mapping still reads
                lease.workspace.taps_flat, ws.taps_flat
            )
        finally:
            worker_cache_clear()
            bundle.close()
