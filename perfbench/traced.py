"""The traced run: per-layer metrics from a stage-by-stage replay.

The replay calls each layer through its public function -- config
resolution, the plan-cache lookup, then the five pipeline stages -- in the
order the public entry point does, with a span around each call.  Every
replay must return ``locations``, ``values`` and ``votes`` bit-identical to
the public call on the same input, so the per-layer numbers describe the
program the end-to-end run times.  A mismatch fails the run.

Phases, all in one process:

A. cold set-up, repeated: resolve, plan build, workspace build, first
   replay (``plan.build_s``, ``workspace.build_s``);
B. steady replay for half of ``--seconds``: the untraced public call (the
   serial one for the batch workload), then the traced replay, then the
   dense FFT, on each input in turn;
C. batched legs on one stack, interleaved and repeated: a cached-plan
   per-call ``sfft`` loop, serial ``sfft_batch_fused``,
   ``sfft_batch(X, k, executor=2)`` and ``ShardedExecutor(workers=2,
   mode="process")``, plus every per-call stage function on each row and
   every fused stage function on the stack.

Shares divide by the median untraced call; the stage shares, the
resolve and lookup shares and ``sfft.unattributed.share`` add up to 1.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

import numpy as np

from repro.core import (
    ShardedExecutor,
    SparseFFTResult,
    bucket_fft,
    cached_plan,
    cutoff_rows,
    estimate_values,
    estimate_values_stack,
    global_plan_cache,
    recover_locations,
    recover_locations_stack,
    resolve_sfft_config,
    sfft,
    sfft_batch,
    sfft_batch_fused,
)

from . import EXECUTOR_WORKERS
from .counts import filter_bytes, stage_bytes
from .spans import SpanRecorder
from .workloads import (
    Input,
    Tally,
    Workload,
    dense_call,
    public_call,
)

STAGES = ("perm_filter", "bucket_fft", "cutoff", "recovery", "estimation")
MB = 1e6
#: Measured repetitions of the batched legs: at least the minimum, more
#: while the phase has time left.
MIN_LEG_REPS, MAX_LEG_REPS = 3, 50

#: Each per-layer metric: (unit, better, layer, end-to-end metric it should
#: move, workload where that shows).  A change to one layer should move its
#: row on the named workload and leave the other workloads flat.
LAYERS: dict[str, tuple[str, str, str, str, str]] = {
    "params.resolve_us": ("us", "lower", "core.params", "call_ms_p50",
                          "call-small"),
    "params.resolve.share": ("1", "lower", "core.params", "call_ms_p50",
                             "call-small"),
    "plan_cache.lookup_us": ("us", "lower", "core.plan_cache", "call_ms_p50",
                             "call-small"),
    "plan_cache.lookup.share": ("1", "lower", "core.plan_cache",
                                "call_ms_p50", "call-small"),
    "plan_cache.hit_ratio": ("1", "higher", "core.plan_cache", "call_ms_p50",
                             "call-small"),
    "sfft.unattributed_us": ("us", "lower", "core.sfft", "call_ms_p50",
                             "call-small"),
    "sfft.unattributed.share": ("1", "lower", "core.sfft", "call_ms_p50",
                                "call-small"),
    "plan.build_s": ("s", "lower", "core.plan, filters", "setup_s, plan_mb",
                     "call-large"),
    "plan.filter_mb": ("MB", "lower", "core.plan, filters",
                       "setup_s, plan_mb", "call-large"),
    "workspace.build_s": ("s", "lower", "core.workspace", "setup_s, plan_mb",
                          "call-large"),
    "workspace.gather_mb": ("MB", "lower", "core.workspace",
                            "setup_s, plan_mb", "call-large"),
    "perm_filter.ms": ("ms", "lower", "core.workspace",
                       "call_ms_p50, speedup_vs_dense", "call-large"),
    "perm_filter.share": ("1", "lower", "core.workspace",
                          "call_ms_p50, speedup_vs_dense", "call-large"),
    "perm_filter.gb_computed": ("GB", "lower", "core.workspace",
                                "call_ms_p50, speedup_vs_dense",
                                "call-large"),
    "bucket_fft.ms": ("ms", "lower", "core.subsampled, core.fft_backend",
                      "call_ms_p50", "call-small"),
    "bucket_fft.share": ("1", "lower", "core.subsampled, core.fft_backend",
                         "call_ms_p50", "call-small"),
    "cutoff.ms": ("ms", "lower", "core.cutoff", "call_ms_p50", "call-small"),
    "cutoff.share": ("1", "lower", "core.cutoff", "call_ms_p50",
                     "call-small"),
    "recovery.ms": ("ms", "lower", "core.recovery",
                    "call_ms_p50, call_peak_mb", "call-large"),
    "recovery.share": ("1", "lower", "core.recovery",
                       "call_ms_p50, call_peak_mb", "call-large"),
    "recovery.score_mb_computed": ("MB", "lower", "core.recovery",
                                   "call_ms_p50, call_peak_mb",
                                   "call-large"),
    "recovery.hit_ratio": ("1", "higher", "core.recovery",
                           "call_ms_p50, call_peak_mb", "call-large"),
    "estimation.ms": ("ms", "lower", "core.estimation",
                      "call_ms_p50, rel_l1_err", "call-small, batch-noisy"),
    "estimation.share": ("1", "lower", "core.estimation",
                         "call_ms_p50, rel_l1_err",
                         "call-small, batch-noisy"),
    "batch.fused_vs_loop": ("x", "higher", "core.batch", "transforms_per_s",
                            "batch-noisy"),
    **{
        f"batch.{stage}.fused_vs_call": ("x", "higher", "core.batch",
                                         "transforms_per_s", "batch-noisy")
        for stage in STAGES
    },
    "executor.thread_vs_serial": ("x", "higher", "core.executor",
                                  "transforms_per_s", "batch-noisy"),
    "executor.process_vs_thread": ("x", "higher", "core.executor, core.shm",
                                   "transforms_per_s", "batch-noisy"),
    "dense.ms": ("ms", "lower", "core.dense",
                 "speedup_vs_dense (the reference leg)", "all"),
    "trace.overhead_ratio": ("x", "lower", "benchmark",
                             "none (the cost of tracing)", "all"),
}


def _median(xs) -> float:
    return float(np.median(xs))


# -- replays -----------------------------------------------------------------

def _call_stages(x, plan, rec: SpanRecorder, cat: str):
    """The five stages of ``sfft(x, plan=plan)``, one span each.

    Returns ``(result, untrimmed hits, {stage: seconds})``.
    """
    p = plan.params
    B, v = p.B, p.voting_loops
    ws = plan.workspace()
    spans = {}
    with rec.span("perm_filter", cat) as spans["perm_filter"]:
        raw = ws.bin_fused(x)
    with rec.span("bucket_fft", cat) as spans["bucket_fft"]:
        rows = bucket_fft(raw)
    with rec.span("cutoff", cat) as spans["cutoff"]:
        selected = cutoff_rows(np.abs(rows[:v]), p.select_count,
                               method="topk")
    with rec.span("recovery", cat) as spans["recovery"]:
        hits, votes = recover_locations(
            selected, list(plan.permutations[:v]), B, p.vote_threshold,
            scores_out=ws.scores,
        )
    with rec.span("estimation", cat) as spans["estimation"]:
        values = estimate_values(hits, rows, list(plan.permutations),
                                 plan.filt, B)
    res = SparseFFTResult(n=p.n, locations=hits, values=values, votes=votes)
    return res.top(p.k), hits, {s: sp.seconds for s, sp in spans.items()}


def _stack_stages(X, plan, rec: SpanRecorder, cat: str):
    """The five fused stages of ``sfft_batch_fused(X, plan)``, one span each.

    Returns ``(results, untrimmed hits per row, {stage: seconds})``.
    """
    p = plan.params
    B, L, v = p.B, p.loops, p.voting_loops
    S = X.shape[0]
    ws = plan.workspace()
    spans = {}
    with rec.span("perm_filter", cat) as spans["perm_filter"]:
        raw = ws.bin_fused_stack(X)
    with rec.span("bucket_fft", cat) as spans["bucket_fft"]:
        rows = ws.bucket_fft(raw.reshape(S * L, B)).reshape(S, L, B)
    with rec.span("cutoff", cat) as spans["cutoff"]:
        flat = cutoff_rows(np.abs(rows[:, :v, :]).reshape(S * v, B),
                           p.select_count, method="topk")
        selected = [flat[s * v:(s + 1) * v] for s in range(S)]
    with rec.span("recovery", cat) as spans["recovery"]:
        hits, votes = recover_locations_stack(
            selected, list(plan.permutations[:v]), B, p.vote_threshold,
        )
    with rec.span("estimation", cat) as spans["estimation"]:
        values = estimate_values_stack(hits, rows, list(plan.permutations),
                                       plan.filt, B)
    results = [
        SparseFFTResult(n=p.n, locations=h, values=val, votes=vt).top(p.k)
        for h, val, vt in zip(hits, values, votes)
    ]
    return results, hits, {s: sp.seconds for s, sp in spans.items()}


def _stages(wl: Workload, X, plan, rec: SpanRecorder, cat: str):
    if wl.batch == 0:
        res, hits, times = _call_stages(X[0], plan, rec, cat)
        return [res], [hits], times
    return _stack_stages(X, plan, rec, cat)


def _resolve(wl: Workload):
    return resolve_sfft_config(wl.n, wl.k, batch_size=wl.signals_per_call,
                               explicit={}, comb_width=None)


def replay(wl: Workload, X, plan_seed: int, rec: SpanRecorder):
    """The workload's serial public call, layer by layer.

    Returns ``(results, untrimmed hits, {layer: seconds})``.
    """
    with rec.span("params.resolve", "layer") as resolve:
        resolved = _resolve(wl)
    with rec.span("plan_cache.lookup", "layer") as lookup:
        plan = cached_plan(wl.n, wl.k, seed=plan_seed, **resolved.overrides)
    results, hits, times = _stages(wl, X, plan, rec, "stage")
    times["params.resolve"] = resolve.seconds
    times["plan_cache.lookup"] = lookup.seconds
    return results, hits, times


def _identical(a: SparseFFTResult, b: SparseFFTResult) -> bool:
    return (np.array_equal(a.locations, b.locations)
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.votes, b.votes))


def _compare(tally: Tally, inp: Input, leg: str, got: list, want: list):
    """Fail every row of ``got`` that is not bit-identical to ``want``."""
    for row, (a, b) in enumerate(zip(got, want)):
        if not _identical(a, b):
            tally.fail(inp, row, leg, "not bit-identical to the public call")


# -- phases ------------------------------------------------------------------

def _cold_setup(wl, pool, plan_seed, tally, rec):
    build, workspace = [], []
    for _ in range(wl.setup_repeats):
        global_plan_cache().clear()
        with rec.span("setup", "setup"):
            with rec.span("params.resolve", "setup"):
                resolved = _resolve(wl)
            with rec.span("plan.build", "setup") as b:
                plan = cached_plan(wl.n, wl.k, seed=plan_seed,
                                   **resolved.overrides)
            with rec.span("workspace.build", "setup") as w:
                ws = plan.workspace()
                _ = ws.gather, ws.taps_flat  # the lazily built arrays
            results, _, _ = _stages(wl, pool[0].X, plan, rec, "setup")
        build.append(b.seconds)
        workspace.append(w.seconds)
        tally.check(results, pool[0], "setup")
    return build, workspace


def _steady_replay(wl, pool, plan_seed, seconds, tally, rec):
    """Phase B; returns per-iteration timings and hit counts."""
    untraced, roots, dense = [], [], []
    layers: dict[str, list[float]] = {}
    true_hits = all_hits = 0
    before = global_plan_cache().stats()
    end = perf_counter() + seconds
    i = 0
    while perf_counter() < end or not untraced:
        inp = pool[i % len(pool)]
        i += 1
        t0 = perf_counter_ns()
        try:
            public = public_call(wl, inp.X, plan_seed, executor=None)
        except Exception as exc:  # a failed transform must not end the run
            tally.call_raised(inp, "untraced", exc)
            continue
        untraced.append((perf_counter_ns() - t0) * 1e-9)
        tally.check(public, inp, "untraced")
        with rec.span("replay", "replay") as root:
            results, hits, times = replay(wl, inp.X, plan_seed, rec)
        roots.append(root.seconds)
        _compare(tally, inp, "replay", results, public)
        for name, t in times.items():
            layers.setdefault(name, []).append(t)
        for h, truth in zip(hits, inp.truth):
            true_hits += int(np.isin(h, truth.locations).sum())
            all_hits += h.size
        with rec.span("dense", "dense") as d:
            dense_call(wl, inp.X)
        dense.append(d.seconds)
    after = global_plan_cache().stats()
    hits_n = after["hits"] - before["hits"]
    lookups = hits_n + after["misses"] - before["misses"]
    return {
        "untraced": untraced, "roots": roots, "dense": dense,
        "layers": layers, "recovery_hit_ratio": true_hits / max(1, all_hits),
        "plan_cache_hit_ratio": hits_n / max(1, lookups),
    }


def _batched_legs(wl, pool, plan_seed, seconds, tally, rec):
    """Phase C on one stack; returns medians of every leg and stage sum."""
    rows = [(inp.X[r], inp.truth[r]) for inp in pool
            for r in range(len(inp.truth))][:wl.leg_rows]
    stack = Input(index=0, X=np.stack([x for x, _ in rows]),
                  truth=[t for _, t in rows])
    X = stack.X
    plan = cached_plan(wl.n, wl.k, seed=plan_seed, **_resolve(wl).overrides)
    process = ShardedExecutor(workers=EXECUTOR_WORKERS, mode="process")
    legs = {
        "loop": lambda: [sfft(x, plan=plan) for x in X],
        "fused": lambda: sfft_batch_fused(X, plan),
        "thread": lambda: sfft_batch(X, wl.k, seed=plan_seed,
                                     executor=EXECUTOR_WORKERS),
        "process": lambda: process.run(X, plan),
    }
    times: dict[str, list[float]] = {}
    end = perf_counter()
    for rep in range(1 + MAX_LEG_REPS):
        if rep == 1:  # rep 0 warmed up the process pool and the pages
            times.clear()
            end = perf_counter() + seconds
        elif rep > MIN_LEG_REPS and perf_counter() >= end:
            break
        out = {}
        for name, leg in legs.items():
            with rec.span(f"leg.{name}", "leg") as sp:
                out[name] = leg()
            times.setdefault(name, []).append(sp.seconds)
            tally.check(out[name], stack, f"leg.{name}")
        with rec.span("leg.call_stages", "leg"):
            per_call = [_call_stages(x, plan, rec, "call") for x in X]
        with rec.span("leg.fused_stages", "leg"):
            fused, _, fused_t = _stack_stages(X, plan, rec, "fused")
        for stage in STAGES:
            times.setdefault(f"call.{stage}", []).append(
                sum(t[stage] for _, _, t in per_call))
            times.setdefault(f"fused.{stage}", []).append(fused_t[stage])
        _compare(tally, stack, "leg.thread", out["thread"], out["fused"])
        _compare(tally, stack, "leg.process", out["process"], out["fused"])
        _compare(tally, stack, "leg.call_stages",
                 [r for r, _, _ in per_call], out["loop"])
        _compare(tally, stack, "leg.fused_stages", fused, out["fused"])
    return {name: _median(ts) for name, ts in times.items()}


def run_traced(wl: Workload, pool: list[Input], plan_seed: int,
               seconds: float, tally: Tally, rec: SpanRecorder) -> dict:
    """Measure every per-layer metric; returns ``{name: value}``."""
    build, workspace = _cold_setup(wl, pool, plan_seed, tally, rec)
    b = _steady_replay(wl, pool, plan_seed, seconds / 2, tally, rec)
    legs = _batched_legs(wl, pool, plan_seed, seconds / 2, tally, rec)

    plan = cached_plan(wl.n, wl.k, seed=plan_seed, **_resolve(wl).overrides)
    S = wl.signals_per_call
    moved = stage_bytes(plan, S)
    call = _median(b["untraced"])
    med = {name: _median(ts) for name, ts in b["layers"].items()}
    attributed = sum(med.values())
    out = {
        "params.resolve_us": med["params.resolve"] * 1e6,
        "params.resolve.share": med["params.resolve"] / call,
        "plan_cache.lookup_us": med["plan_cache.lookup"] * 1e6,
        "plan_cache.lookup.share": med["plan_cache.lookup"] / call,
        "plan_cache.hit_ratio": b["plan_cache_hit_ratio"],
        "sfft.unattributed_us": (call - attributed) * 1e6,
        "sfft.unattributed.share": (call - attributed) / call,
        "plan.build_s": _median(build),
        "plan.filter_mb": sum(filter_bytes(plan).values()) / MB,
        "workspace.build_s": _median(workspace),
        "workspace.gather_mb":
            plan.workspace().memory_breakdown()["gather_bytes"] / MB,
        "perm_filter.gb_computed": moved["perm_filter"] / 1e9,
        "recovery.score_mb_computed": moved["recovery.scores"] / MB,
        "recovery.hit_ratio": b["recovery_hit_ratio"],
        "batch.fused_vs_loop": legs["loop"] / legs["fused"],
        "executor.thread_vs_serial": legs["fused"] / legs["thread"],
        "executor.process_vs_thread": legs["thread"] / legs["process"],
        "dense.ms": _median(b["dense"]) / S * 1e3,
        "trace.overhead_ratio": _median(b["roots"]) / call,
    }
    for stage in STAGES:
        out[f"{stage}.ms"] = med[stage] * 1e3
        out[f"{stage}.share"] = med[stage] / call
        out[f"batch.{stage}.fused_vs_call"] = (
            legs[f"call.{stage}"] / legs[f"fused.{stage}"])
    return {name: out[name] for name in LAYERS}
