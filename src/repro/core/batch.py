"""Batched sparse-FFT execution — one plan, a stack of signals, one pass.

Plans amortize filter synthesis; this module amortizes *execution*
overhead across an ``(S, n)`` signal stack the way the GPU implementation
amortizes kernel launches.  :func:`sfft_batch_fused` validates the stack
and runs the one six-step pipeline,
:func:`~repro.core.sfft.run_stack_pipeline`, over all ``S`` signals:

* steps 1-2 run one chunked gather + fold over all ``S * L``
  ``(signal, loop)`` rows
  (:meth:`~repro.core.workspace.PlanWorkspace.bin_fused_stack`);
* step 3 is a single ``(S*L, B)`` batched bucket FFT — the shape a batched
  cuFFT call would take;
* step 4 selects buckets with one batched top-k over all ``S * v_loops``
  voting rows (:func:`~repro.core.cutoff.cutoff_rows`);
* step 5 votes for every signal in one flat ``(S * n)`` score array
  (:func:`~repro.core.recovery.recover_locations_stack`);
* step 6 estimates all signals' hits in one vectorized pass
  (:func:`~repro.core.estimation.estimate_values_stack`).

:func:`~repro.core.sfft.sfft` runs the same pipeline on a stack of one, and
every stage is per-signal independent, so ``sfft_batch_fused(X, plan)[s]``
recovers the same support as ``sfft(X[s], plan=plan)`` with
(floating-point-)identical values — the property suite asserts this signal
for signal.  The same independence lets the sharded executor
(:mod:`repro.core.executor`) drive slices of a stack through the pipeline
concurrently.

The public entry point is :func:`repro.core.variants.sfft_batch`, which
resolves the plan and routes to this engine or to the executor.
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from ..utils.validation import as_complex_signal
from .plan import SfftPlan
from .sfft import SparseFFTResult, run_stack_pipeline

__all__ = ["sfft_batch_fused", "as_signal_stack"]


@shape_contract("X:*, plan:* -> (S, n)", dtype="complex128",
                bind={"n": "plan.n"})
def as_signal_stack(X: np.ndarray, plan: SfftPlan) -> np.ndarray:
    """Validate ``X`` as an ``(S, n)`` complex stack for ``plan``, no-copy
    when it already is one (C-contiguous ``complex128``)."""
    X = np.atleast_2d(np.asarray(X))
    if X.ndim != 2:
        raise ParameterError(f"signal stack must be 2-D, got shape {X.shape}")
    if X.dtype == np.complex128 and X.flags.c_contiguous:
        # Already the working layout: validate the shape, never copy the
        # stack (it can dwarf every buffer the transform itself touches).
        if X.shape[1] != plan.n:
            raise ParameterError(
                f"signal length {X.shape[1]} != plan n={plan.n}"
            )
        if X.shape[0] == 0:
            raise ParameterError("batch must contain at least one signal")
        return X
    return np.stack([as_complex_signal(row, plan.n) for row in X])


@shape_contract("X:*, plan:* -> *", bind={"n": "plan.n"})
def sfft_batch_fused(
    X: np.ndarray, plan: SfftPlan
) -> list[SparseFFTResult]:
    """Transform an ``(S, n)`` signal stack under one plan, fully batched.

    Returns one :class:`~repro.core.sfft.SparseFFTResult` per stack row.
    """
    return run_stack_pipeline(as_signal_stack(X, plan), plan)
