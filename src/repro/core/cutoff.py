"""Cutoff — keep the buckets that plausibly hold large coefficients (step 4).

Two strategies, matching the paper:

* :func:`select_topk` — the baseline *sort & select* (Algorithm 3): exact
  top-``m`` bucket magnitudes.  On the GPU this is a Thrust
  ``sort_by_key``; here an ``argpartition`` (O(B)) gives identical output
  without the full sort.
* :func:`select_threshold` — the optimized *fast k-selection*
  (Algorithm 6): one pass keeping every bucket above a noise-floor
  threshold.  Linear time, no sort; may return slightly more than ``m``
  buckets, which downstream voting absorbs (the paper: "this approach will
  yield slightly more than the number of k elements, but this is ignored").

:func:`noise_floor_threshold` picks the threshold from the bucket-magnitude
statistics themselves: with ``B >> k``, the median bucket magnitude *is* the
noise level, so a constant multiple of it separates signal from noise — the
"empirically obtained" threshold of Section V-B made deterministic.

The CPU pipeline selects top-``m`` only (:func:`cutoff_rows`); the
threshold path serves the GPU model's Algorithm-6 kernel
(:mod:`repro.gpu.kernels.select`).
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError

__all__ = [
    "select_topk",
    "noise_floor_threshold",
    "select_threshold",
    "cutoff",
    "cutoff_rows",
]


@shape_contract("magnitudes:*, m:* -> *", dtype="int64")
def select_topk(magnitudes: np.ndarray, m: int) -> np.ndarray:
    """Indices of the ``m`` largest entries (unordered), exact.

    Equivalent to the paper's Algorithm 3 (sort descending, take ``m``)
    but via partial selection.
    """
    mags = np.asarray(magnitudes)
    if mags.ndim != 1:
        raise ParameterError(f"magnitudes must be 1-D, got shape {mags.shape}")
    if not 1 <= m <= mags.size:
        raise ParameterError(f"m={m} must be in [1, {mags.size}]")
    if m == mags.size:
        return np.arange(mags.size, dtype=np.int64)
    return np.argpartition(mags, -m)[-m:].astype(np.int64)


def noise_floor_threshold(magnitudes: np.ndarray, factor: float = 4.0) -> float:
    """Noise-floor estimate: ``factor`` times the median bucket magnitude.

    Robust because at most ~``k`` of the ``B >> 2k`` buckets hold signal, so
    the median is untouched by them.
    """
    mags = np.asarray(magnitudes)
    if mags.size == 0:
        raise ParameterError("cannot estimate a threshold from zero buckets")
    if factor <= 0:
        raise ParameterError(f"factor must be positive, got {factor}")
    return float(factor * np.median(mags))


@shape_contract("magnitudes:*, threshold:* -> *", dtype="int64")
def select_threshold(
    magnitudes: np.ndarray,
    threshold: float,
    *,
    cap: int | None = None,
) -> np.ndarray:
    """Indices with magnitude strictly above ``threshold`` (Algorithm 6).

    ``cap`` bounds the output size: if the threshold proved too permissive
    (more than ``cap`` survivors), the largest ``cap`` are kept — the
    safety net for the "threshold too small" failure mode the paper warns
    about.
    """
    mags = np.asarray(magnitudes)
    if mags.ndim != 1:
        raise ParameterError(f"magnitudes must be 1-D, got shape {mags.shape}")
    chosen = np.flatnonzero(mags > threshold).astype(np.int64)
    if cap is not None and chosen.size > cap:
        order = np.argpartition(mags[chosen], -cap)[-cap:]
        chosen = chosen[order]
    return chosen


@shape_contract("magnitudes:*, m:* -> *", dtype="int64")
def cutoff(
    magnitudes: np.ndarray,
    m: int,
    *,
    method: str = "topk",
    threshold_factor: float = 4.0,
    cap_factor: int = 4,
) -> np.ndarray:
    """Single-row cutoff; the GPU model's fast-select kernel calls it with
    ``method="threshold"`` (:mod:`repro.gpu.kernels.select`).

    ``method="topk"`` is the exact baseline; ``method="threshold"`` the fast
    single-pass variant with a ``cap_factor * m`` survivor cap and a top-k
    fallback when the threshold keeps *fewer* than ``m`` buckets (threshold
    too large — the other failure mode of Section V-B).
    """
    if method == "topk":
        return select_topk(magnitudes, m)
    if method == "threshold":
        thr = noise_floor_threshold(magnitudes, threshold_factor)
        chosen = select_threshold(magnitudes, thr, cap=cap_factor * m)
        if chosen.size < m:
            return select_topk(magnitudes, m)
        return chosen
    raise ParameterError(f"unknown cutoff method {method!r}")


@shape_contract("magnitudes:(R, B), m:* -> *")
def cutoff_rows(
    magnitudes: np.ndarray,
    m: int,
    *,
    method: str = "topk",
) -> list[np.ndarray]:
    """Per-row top-``m`` cutoff over a 2-D magnitude matrix — one call, all
    loops.

    The pipeline computes ``|Z|`` for every voting row at once (a
    ``(rows, B)`` matrix spanning all loops, and all signals in the
    batched case) and selects here with a single batched ``argpartition``
    instead of a Python-level loop of :func:`select_topk` calls.  Row ``r``
    of the result is element-for-element what ``cutoff(magnitudes[r], m)``
    returns.

    The CPU pipeline always selects top-``m``: ``argpartition`` is already
    ``O(B)``, so the single-pass threshold of Algorithm 6 (which wins on
    the GPU by replacing an ``O(B log B)`` sort) only measured slower here.
    It stays in :func:`cutoff` for the GPU model.  ``method`` accepts only
    ``"topk"``.
    """
    if method != "topk":
        raise ParameterError(f"unknown cutoff method {method!r}")
    mags = np.asarray(magnitudes)
    if mags.ndim != 2:
        raise ParameterError(f"magnitudes must be 2-D, got shape {mags.shape}")
    B = mags.shape[1]
    if not 1 <= m <= B:
        raise ParameterError(f"m={m} must be in [1, {B}]")
    if m == B:
        return [np.arange(B, dtype=np.int64) for _ in range(mags.shape[0])]
    chosen = np.argpartition(mags, -m, axis=1)[:, -m:].astype(np.int64)
    return list(chosen)
