"""Run one benchmark workload with one seed.

From the repository root::

    python3 perfbench/run.py --workload call-large --seed 3 --seconds 15 --trace 0

``--trace 0`` times the workload's public calls with tracing off and
reports the end-to-end metrics.  ``--trace 1`` runs the traced replay,
reports the per-layer metrics and writes its spans as a Chrome trace under
``.perfbench/``.  Every metric is printed by name with its unit and sample
count; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output check passed, 1 when any check failed,
2 when the arguments or the repository are unusable (no result printed).
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Variables the program reads to choose its configuration.  They are
#: cleared so a stray wisdom store, backend, executor mode or parameter pin
#: cannot change the program being measured.  ``REPRO_B``/``REPRO_LOOPS``
#: are cleared too, in case a later version reads the shorter names.
PINNED_ENV = (
    "REPRO_WISDOM", "REPRO_FFT_BACKEND", "REPRO_EXECUTOR_MODE",
    "REPRO_SFFT_B", "REPRO_SFFT_LOOPS", "REPRO_B", "REPRO_LOOPS",
    "REPRO_CHECK_CONTRACTS", "REPRO_EXECUTOR_KILL_SHARD",
)
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def pin_environment(workers: int) -> tuple[int, int]:
    """Clear the program's config variables and cap native thread pools.

    Each executor worker gets ``nproc // workers`` BLAS/OpenMP threads (at
    least one), so worker threads never outnumber the CPUs.  Must run
    before NumPy is imported.  Returns ``(nproc, threads per worker)``.
    """
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    nproc = len(os.sched_getaffinity(0))
    cap = max(1, nproc // workers)
    for var in THREAD_ENV:
        os.environ[var] = str(cap)
    return nproc, cap


def last_level_cache() -> str:
    """The last-level cache line of ``lscpu``, or ``"unknown"``."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    caches = [line for line in out.splitlines()
              if line.startswith("L") and " cache:" in line]
    return " ".join(max(caches).split()) if caches else "unknown"


def _stop_helper_processes() -> None:
    """Stop, and wait for, the helpers multiprocessing started.

    A process pool starts a fork server and shared memory starts a resource
    tracker; Python waits for neither at exit.  Registered with ``atexit``
    before ``repro`` is imported, so it runs after the executor's own
    handler has shut its process pools down.
    """
    forkserver = sys.modules.get("multiprocessing.forkserver")
    if forkserver is not None:
        try:
            forkserver._forkserver._stop()
        except FileNotFoundError:
            # The server was reaped; multiprocessing's own exit handler
            # had already removed its socket directory.
            pass
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import EXECUTOR_WORKERS

    nproc, threads = pin_environment(EXECUTOR_WORKERS)
    atexit.register(_stop_helper_processes)

    # Imported only now: the thread caps must be set before NumPy loads.
    import numpy as np

    import repro
    from repro.core import cached_plan, get_backend, resolve_sfft_config

    from perfbench.counts import plan_bytes, stage_bytes
    from perfbench.endtoend import GATED, run_end_to_end
    from perfbench.spans import SpanRecorder
    from perfbench.traced import LAYERS, run_traced
    from perfbench.workloads import WORKLOADS, Tally, make_pool

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, list(WORKLOADS))
    wl = WORKLOADS[args.workload]
    S = wl.signals_per_call
    pool = make_pool(wl, args.seed)
    tally = Tally(wl, args.seed)

    if args.trace:
        rec = SpanRecorder()
        values = run_traced(wl, pool, args.seed, args.seconds, tally, rec)
        trace_path = ROOT / ".perfbench" / \
            f"trace-{wl.name}-seed{args.seed}.json"
        rec.write_chrome(trace_path)
        metrics = {name: (v, LAYERS[name][0], None)
                   for name, v in values.items()}
        gated = tuple(LAYERS)
    else:
        metrics = run_end_to_end(wl, pool, args.seed, args.seconds, tally)
        gated = GATED

    plan = cached_plan(wl.n, wl.k, seed=args.seed)
    pool_bytes = sum(inp.X.nbytes for inp in pool)
    print(f"workload {wl.name}: n=2^{wl.n.bit_length() - 1} k={wl.k} "
          f"signals/call={S} snr_db={wl.snr_db} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"signal pool {pool_bytes / 2**20:.1f} MiB in {len(pool)} inputs; "
          f"last-level cache {last_level_cache()}")
    print(f"program: config_source="
          f"{resolve_sfft_config(wl.n, wl.k, batch_size=S).source} "
          f"fft_backend={get_backend().name} B={plan.B} L={plan.loops} "
          f"w={plan.filt.width} nproc={nproc} threads/worker={threads} "
          f"numpy={np.__version__}")
    print("plan bytes (counted): " + ", ".join(
        f"{k}={v}" for k, v in plan_bytes(plan).items()))
    print("stage bytes per call (computed): " + ", ".join(
        f"{k}={v}" for k, v in stage_bytes(plan, S).items()))
    for name, (value, unit, samples) in metrics.items():
        if args.trace:
            _, _, layer, moves, on = LAYERS[name]
            where = f"  layer={layer}  moves={moves}  on={on}"
        else:
            where = f"  samples={samples}" + \
                ("" if name in gated else "  (printed, not gated)")
        print(f"  {name:<32} {value:>14.6g} {unit:<4}{where}")
    if args.trace:
        print(f"spans: {len(rec.spans)} written to {trace_path}")
    fail_rate = tally.failed / max(1, tally.attempted)
    print(f"transforms attempted={tally.attempted} failed={tally.failed} "
          f"fail_rate={fail_rate:.6g}")

    ok = tally.failed == 0 and tally.attempted > 0 and bool(metrics)
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in gated if name in metrics},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
