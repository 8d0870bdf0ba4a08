"""Transform variants built on the core driver: inverse, real-input, batch.

These are the convenience surface a downstream user expects from an FFT
library, expressed through the forward sparse transform:

* **inverse** — ``ifft(x)[t] = conj(fft(conj(x)))[t] / n``, so a sparse
  inverse costs exactly one forward sparse transform;
* **real-input** — a real signal's spectrum is conjugate-symmetric,
  ``xhat[n-f] = conj(xhat[f])``; the recovered coefficients are symmetrized
  (pairing mirror frequencies and averaging) which both halves the noise on
  each estimate and guarantees an exactly-real reconstruction;
* **batch** — many signals under one plan (plan reuse is where the
  sub-linear asymptotics pay off).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .batch import sfft_batch_fused
from .params import reject_plan_overrides, resolve_sfft_config
from .plan import SfftPlan
from .plan_cache import cached_plan
from .sfft import SparseFFTResult, sfft

__all__ = ["isfft", "rsfft", "sfft_batch"]


def isfft(x, k: int | None = None, **kwargs) -> SparseFFTResult:
    """Sparse *inverse* DFT: the k significant entries of ``numpy.fft.ifft(x)``.

    Accepts the same arguments as :func:`~repro.core.sfft.sfft`.  The
    returned ``locations`` index time samples and ``values`` are on the
    ``ifft`` scale (including the ``1/n`` factor).
    """
    x = as_complex_signal(x)
    res = sfft(np.conj(x), k, **kwargs)
    return SparseFFTResult(
        n=res.n,
        locations=res.locations,
        values=np.conj(res.values) / res.n,
        votes=res.votes,
        step_times=res.step_times,
        trace=res.trace,
    )


def rsfft(x, k: int | None = None, **kwargs) -> SparseFFTResult:
    """Sparse FFT of a *real* signal with conjugate symmetry enforced.

    ``k`` counts total coefficients (mirror pairs included, as a dense FFT
    would report them).  Mirror pairs ``(f, n-f)`` are symmetrized:
    ``v[f] <- (v[f] + conj(v[n-f])) / 2``; a recovered frequency whose
    mirror was missed donates its conjugate, so the output support is
    always symmetric and ``ifft`` of the dense form is exactly real.
    """
    arr = as_complex_signal(x)
    if np.abs(arr.imag).max() > 0:
        raise ParameterError("rsfft expects a real signal")
    res = sfft(arr.real, k, **kwargs)
    n = res.n

    found = res.as_dict()
    votes = {int(f): int(v) for f, v in zip(res.locations, res.votes)}
    sym: dict[int, complex] = {}
    for f, v in found.items():
        mirror = (-f) % n
        if f in sym:
            continue
        if mirror == f:  # DC or Nyquist: must be real
            sym[f] = complex(v.real, 0.0)
        elif mirror in found:
            avg = (v + np.conj(found[mirror])) / 2.0
            sym[f] = complex(avg)
            sym[mirror] = complex(np.conj(avg))
        else:
            sym[f] = complex(v)
            sym[mirror] = complex(np.conj(v))

    locs = np.array(sorted(sym), dtype=np.int64)
    vals = np.array([sym[int(f)] for f in locs], dtype=np.complex128)
    vts = np.array([votes.get(int(f), votes.get(int((-f) % n), 0)) for f in locs])
    return SparseFFTResult(
        n=n, locations=locs, values=vals, votes=vts,
        step_times=res.step_times, trace=res.trace,
    )


def sfft_batch(
    signals,
    k: int | None = None,
    *,
    plan: SfftPlan | None = None,
    seed: RngLike = None,
    executor=None,
    **plan_overrides,
) -> list[SparseFFTResult]:
    """Transform a batch of equal-length signals under one shared plan.

    ``signals`` is a ``(batch, n)`` array or a sequence of length-``n``
    arrays.  The plan (filter + permutation schedule) comes from the
    process-level cache when not supplied; the stack then runs through the
    fused batch engine (:mod:`repro.core.batch`) — one gather, one
    ``(S*L, B)`` bucket FFT, one vote pass for every signal.  Per-signal
    results match ``sfft(signals[s], plan=plan)`` exactly.  ``seed`` and
    ``plan_overrides`` mean what they mean for
    :func:`~repro.core.sfft.sfft`, including the
    :class:`~repro.errors.ParameterError` for an unknown key, or for a
    derivation override, a ``seed`` or a different ``k`` alongside
    ``plan``.

    ``executor`` parallelizes the fused engine across shards of the stack:
    pass a :class:`~repro.core.executor.ShardedExecutor`, or an ``int``
    worker count as shorthand for ``ShardedExecutor(workers=N)`` (the
    shorthand inherits the executor's default mode — ``thread``, or
    whatever ``REPRO_EXECUTOR_MODE`` says; construct the executor
    explicitly for ``mode="process"``, the shared-memory process pool).
    Sharded results are bit-identical to the serial fused engine in every
    mode.  Per-step timing belongs to single calls (``sfft(x, tracer=...)``)
    or an executor's ``tracer``.
    """
    if isinstance(signals, np.ndarray):
        # Rows of a contiguous stack validate without copying; the fused
        # engine consumes the original array as-is.
        stack = np.atleast_2d(signals)
        rows = [as_complex_signal(s) for s in stack]
        if stack.dtype != np.complex128 or not stack.flags.c_contiguous:
            stack = np.stack(rows)
    else:
        rows = [as_complex_signal(s) for s in signals]
        stack = None
    if not rows:
        raise ParameterError("batch must contain at least one signal")
    n = rows[0].size
    for r in rows:
        if r.size != n:
            raise ParameterError("all batch signals must share one length")
    if plan is None:
        if k is None:
            raise ParameterError("either k or a plan must be provided")
        # The resolution seam (repro.core.params): a wisdom hit supplies
        # B/loops for the plan plus — because the batch surface owns it —
        # the worker count, never overriding anything the caller pinned.
        resolved = resolve_sfft_config(
            n, k, batch_size=len(rows), explicit=plan_overrides,
        )
        plan = cached_plan(n, k, seed=seed, **resolved.overrides)
        if executor is None and resolved.workers > 1:
            executor = resolved.workers
    else:
        reject_plan_overrides(plan, k, seed, plan_overrides)
    X = stack if stack is not None else np.stack(rows)
    if executor is not None:
        from .executor import ShardedExecutor

        if isinstance(executor, int):
            executor = ShardedExecutor(workers=executor)
        if not isinstance(executor, ShardedExecutor):
            raise ParameterError(
                f"executor must be a ShardedExecutor or an int worker "
                f"count, got {type(executor).__name__}"
            )
        return executor.run(X, plan)
    return sfft_batch_fused(X, plan)
