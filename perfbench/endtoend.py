"""The untraced run: end-to-end metrics of the workload's public call.

Order of work, all in one process:

1. ``setup_s`` -- the first call on a cold plan cache (plan build,
   workspace build, first transform), repeated and reported as a median;
2. one untimed warm call per input, which gives ``rel_l1_err`` (the
   median over the pool's signals), then ``call_peak_mb`` from
   ``tracemalloc`` in an untimed pass;
3. the timed closed loop for ``--seconds``: each public call is timed
   alone, then the dense FFT of the same input, and only then are the
   outputs checked.  Each (sparse, dense) pair runs back to back, so both
   legs see the same machine state.

On a shared host the speed of the whole machine drifts by tens of percent
over seconds, which moves every wall time of a run together.  The ratio of
the two legs of a pair cancels that drift, so the gated speed metric is
``speedup_vs_dense``, the median over pairs of dense time / sparse time.
The wall times themselves (``call_ms_p50``, ``call_ms_p90``,
``transforms_per_s``) are printed with every run but not gated.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.core import cached_plan, global_plan_cache

from .counts import plan_bytes
from .workloads import Input, Tally, Workload, dense_call, public_call

MB = 1e6

#: The metrics ``BENCHMARK.json`` gates, in its order.
GATED = ("speedup_vs_dense", "setup_s", "plan_mb", "call_peak_mb",
         "rel_l1_err")


def _median(xs) -> float:
    return float(np.median(xs))


def measure_setup(wl: Workload, inp: Input, seed: int,
                  tally: Tally) -> list[float]:
    """Seconds of each first call on a cold plan cache."""
    times = []
    for _ in range(wl.setup_repeats):
        global_plan_cache().clear()
        t0 = perf_counter()
        results = public_call(wl, inp.X, seed)
        times.append(perf_counter() - t0)
        tally.check(results, inp, "setup")
    return times


def peak_call_mb(wl: Workload, inp: Input, seed: int) -> float:
    """Peak bytes allocated during one warm call, by ``tracemalloc``."""
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            public_call(wl, inp.X, seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return _median(peaks) / MB


def run_end_to_end(wl: Workload, pool: list[Input], seed: int,
                   seconds: float, tally: Tally) -> dict:
    """Measure the end-to-end metrics; returns ``{name: (value, unit, n)}``.

    The gated ones are named in :data:`GATED`; the rest are printed only.
    Returns ``{}`` when every timed call raised.
    """
    setup = measure_setup(wl, pool[0], seed, tally)
    # One warm call per input; a transform is deterministic, so these give
    # the run's error once per distinct signal however often the loop
    # below repeats it.
    first = len(tally.errors)
    for inp in pool:
        tally.check(public_call(wl, inp.X, seed), inp, "warm")
    errors = tally.errors[first:]
    peak_mb = peak_call_mb(wl, pool[0], seed)

    sparse_ns: list[int] = []
    dense_ns: list[int] = []
    end = perf_counter() + seconds
    i = 0
    while perf_counter() < end:
        inp = pool[i % len(pool)]
        i += 1
        t0 = perf_counter_ns()
        try:
            results = public_call(wl, inp.X, seed)
        except Exception as exc:  # a failed transform must not end the run
            tally.call_raised(inp, "timed", exc)
            continue
        t1 = perf_counter_ns()
        dense_call(wl, inp.X)
        t2 = perf_counter_ns()
        sparse_ns.append(t1 - t0)
        dense_ns.append(t2 - t1)
        tally.check(results, inp, "timed")

    if not sparse_ns:
        return {}
    S = wl.signals_per_call
    call_ms = np.asarray(sparse_ns) / 1e6
    pairs = len(call_ms)
    plan = cached_plan(wl.n, wl.k, seed=seed)
    return {
        "speedup_vs_dense": (
            _median(np.asarray(dense_ns) / np.asarray(sparse_ns)), "x", pairs),
        "setup_s": (_median(setup), "s", len(setup)),
        "plan_mb": (plan_bytes(plan)["total"] / MB, "MB", 1),
        "call_peak_mb": (peak_mb, "MB", 3),
        "rel_l1_err": (_median(errors), "1", len(errors)),
        "call_ms_p50": (float(np.percentile(call_ms, 50)), "ms", pairs),
        "call_ms_p90": (float(np.percentile(call_ms, 90)), "ms", pairs),
        "transforms_per_s": (S * pairs / (call_ms.sum() / 1e3), "1/s", pairs),
    }
