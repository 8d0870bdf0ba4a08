"""The three workloads, their seeded input pools and the output check.

Every workload is one caller in a closed loop in one process: the next
public call starts only after the previous one returned.  Inputs come from
``repro.signals`` only, drawn from a generator seeded by ``--seed``, so one
seed always gives the same pool.  The plan's permutation seed is the same
integer, which makes a failing ``(seed, signal)`` pair reproducible.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core import dense_fft, sfft, sfft_batch
from repro.signals import SparseSignal, add_awgn, make_sparse_signal

from . import EXECUTOR_WORKERS

#: Largest relative l1 error one transform may have and still pass.  It is
#: the loose per-coefficient bound the repository documents for an estimate
#: whose loops mostly collide (tests/properties/test_prop_pipeline.py); an
#: error beyond it is an estimate the program's own contract calls wrong.
REL_L1_BOUND = 0.35


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``batch`` is the number of signals per public call: ``0`` means one
    plan-less ``sfft(x, k)`` per signal, ``S > 0`` one plan-less
    ``sfft_batch(X, k, executor=2)`` per ``(S, n)`` stack.  ``pool`` counts
    distinct inputs (signals, or stacks), cycled in order.  ``leg_rows`` is
    how many pool signals form the stack the traced run's batched legs use.
    """

    name: str
    n: int
    k: int
    batch: int
    snr_db: float | None
    pool: int
    setup_repeats: int
    leg_rows: int

    @property
    def signals_per_call(self) -> int:
        return max(1, self.batch)


WORKLOADS = {
    # The per-call floor: validation, config resolution, the plan-cache
    # lookup and the glue in core.sfft outweigh the stage work.  Sixteen
    # 64 KiB signals keep the pool inside one core's L2, so the floor is
    # measured without memory traffic.
    "call-small": Workload(
        "call-small", n=1 << 12, k=8, batch=0, snr_db=None, pool=16,
        setup_repeats=31, leg_rows=16,
    ),
    # The only size class where sparse beats dense: perm_filter and
    # recovery dominate and the plan holds ~117 MB.  Four 64 MiB signals.
    "call-large": Workload(
        "call-large", n=1 << 22, k=100, batch=0, snr_db=None, pool=4,
        setup_repeats=3, leg_rows=2,
    ),
    # The fused stack stages and the thread executor on inputs where the
    # estimate error is not zero.  At 2^18 the call time spread too widely
    # between runs; 2^16 keeps it steady.
    "batch-noisy": Workload(
        "batch-noisy", n=1 << 16, k=16, batch=32, snr_db=10.0, pool=2,
        setup_repeats=25, leg_rows=32,
    ),
}


@dataclass(frozen=True)
class Input:
    """One public call's input: an ``(S, n)`` stack and its ground truth."""

    index: int
    X: np.ndarray
    truth: list[SparseSignal]


def make_pool(wl: Workload, seed: int) -> list[Input]:
    """The workload's input pool, a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(wl.pool):
        truth = [make_sparse_signal(wl.n, wl.k, seed=rng)
                 for _ in range(wl.signals_per_call)]
        rows = [sig.time for sig in truth]
        if wl.snr_db is not None:
            rows = [add_awgn(row, wl.snr_db, seed=rng)[0] for row in rows]
        pool.append(Input(index=i, X=np.stack(rows), truth=truth))
    return pool


def public_call(wl: Workload, X: np.ndarray, plan_seed: int, *,
                executor: int | None = EXECUTOR_WORKERS) -> list:
    """The workload's public entry point on one input; one result per row.

    ``executor=None`` runs the batch workload serially, which is the path
    the traced replay mirrors stage by stage.
    """
    if wl.batch == 0:
        return [sfft(X[0], wl.k, seed=plan_seed)]
    return sfft_batch(X, wl.k, seed=plan_seed, executor=executor)


def dense_call(wl: Workload, X: np.ndarray) -> list[np.ndarray]:
    """The dense reference leg: one full FFT per row.

    It runs on as many threads as the workload's public call, so both legs
    of the comparison get the same CPUs.
    """
    if wl.batch == 0:
        return [dense_fft(X[0])]
    with ThreadPoolExecutor(max_workers=EXECUTOR_WORKERS) as pool:
        return list(pool.map(dense_fft, X))


def check_output(res, truth: SparseSignal) -> tuple[bool, float]:
    """``(passed, rel_l1_err)`` of one transform against its ground truth.

    The recovered support must equal the true support, and the relative l1
    error against the noiseless spectrum must stay within
    :data:`REL_L1_BOUND`.  A wrong support reports an error of ``inf``.
    """
    if not np.array_equal(res.locations, truth.locations):
        return False, float("inf")
    err = float(np.abs(res.values - truth.values).sum()
                / np.abs(truth.values).sum())
    return err <= REL_L1_BOUND, err


class Tally:
    """Checked transforms of one run: counts, errors and failure reports.

    Every failure is counted; the first one of each ``(leg, signal)`` is
    printed with the workload, seed and signal index that reproduce it.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []
        self._reported: set[tuple[str, int]] = set()

    def check(self, results: list, inp: Input, leg: str) -> None:
        """Check one call's results, row by row, against the ground truth."""
        for row, (res, truth) in enumerate(zip(results, inp.truth)):
            self.attempted += 1
            ok, err = check_output(res, truth)
            if np.isfinite(err):
                self.errors.append(err)
            if not ok:
                why = "wrong support" if not np.isfinite(err) \
                    else f"rel_l1_err {err:.3g} > {REL_L1_BOUND}"
                self.fail(inp, row, leg, why)

    def call_raised(self, inp: Input, leg: str, exc: Exception) -> None:
        """A raised exception fails every transform of the call."""
        for row in range(len(inp.truth)):
            self.attempted += 1
            self.fail(inp, row, leg, f"{type(exc).__name__}: {exc}")

    def fail(self, inp: Input, row: int, leg: str, why: str) -> None:
        self.failed += 1
        signal = inp.index * self.wl.signals_per_call + row
        if (leg, signal) not in self._reported:
            self._reported.add((leg, signal))
            print(f"FAILED workload={self.wl.name} seed={self.seed} "
                  f"signal={signal} leg={leg}: {why}", file=sys.stderr)
