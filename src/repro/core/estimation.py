"""Magnitude reconstruction — paper step 6 / GPU Algorithm 5.

For a recovered frequency ``f`` and loop ``r`` with permutation
``(sigma_r, tau_r)``:

* its permuted position is ``p = sigma_r * f mod n``;
* it hashed to the *nearest* bucket ``m = round(p / (n/B)) mod B`` with a
  signed offset ``o = p - m*(n/B)`` (``|o| <= n/(2B)``, inside the filter's
  flat passband by design);
* the frequency-domain bucket value satisfies
  ``Z_r[m] ≈ (1/n) * x_hat[f] * exp(2j*pi*tau_r*f/n) * G_hat[-o]``,

so each loop yields the unbiased estimate

    ``est_r = n * Z_r[m] / G_hat[-o] * exp(-2j*pi*tau_r*f/n)``,

with ``G_hat[-o]`` read from the filter's stored response window
(``filt.response[filt.reach - o]``; ``|o| <= n/(2B) <= reach``).

The final value is the coordinate-wise median (real and imaginary parts
separately — exactly the paper's step 6) over the ``L`` loops, which rejects
the occasional loop where ``f`` collided with another coefficient.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from ..filters.base import FlatFilter
from .permutation import Permutation

__all__ = [
    "loop_estimates",
    "estimate_values",
    "estimate_values_stack",
    "componentwise_median",
    "clean_loop_counts",
    "median_reliable",
]


def _estimates(
    freqs: np.ndarray,
    first_row: np.ndarray,
    flat_rows: np.ndarray,
    permutations: list[Permutation],
    filt: FlatFilter,
    B: int,
) -> np.ndarray:
    """Per-loop estimates ``(F, L)``; hit ``i`` reads rows ``first_row[i] + r``.

    The one copy of the step-6 formula (module docstring): ``flat_rows``
    stacks every signal's ``L`` bucket rows, and ``first_row`` points each
    hit at its own signal's block.
    """
    n = filt.n
    n_div_b = n // B
    L = len(permutations)
    sigmas = np.array([p.sigma for p in permutations], dtype=np.int64)
    taus = np.array([p.tau for p in permutations], dtype=np.float64)

    # permuted position per (hit, loop); int64 is safe: f, sigma < n <= 2^31.
    p = (freqs[:, None] * sigmas[None, :]) % n
    hashed = ((p + n_div_b // 2) // n_div_b) % B
    dist = p - ((p + n_div_b // 2) // n_div_b) * n_div_b  # signed offset o

    z = flat_rows[first_row[:, None] + np.arange(L)[None, :], hashed]
    g = filt.response[filt.reach - dist]
    phase = np.exp(
        -2j * np.pi * taus[None, :] * freqs[:, None].astype(np.float64) / n
    )
    return n * z / g * phase


@shape_contract("frequencies:(F,), bucket_rows:(L, B):complex128 -> (F, L)",
                dtype="complex128",
                bind={"B": "B"},
                attrs={"filt.response": "(_,):complex128"})
def loop_estimates(
    frequencies: np.ndarray,
    bucket_rows: np.ndarray,
    permutations: list[Permutation],
    filt: FlatFilter,
    B: int,
) -> np.ndarray:
    """Per-loop estimates, shape ``(len(frequencies), L)``.

    ``bucket_rows`` is the ``(L, B)`` array of frequency-domain buckets (the
    batched FFT output).  Vectorized over both hits and loops — the direct
    translation of Algorithm 5's per-``(tid, j)`` body.
    """
    freqs = np.asarray(frequencies, dtype=np.int64)
    rows = np.asarray(bucket_rows)
    if rows.ndim != 2 or rows.shape[1] != B:
        raise ParameterError(f"bucket_rows must be (L, B), got {rows.shape}")
    L = rows.shape[0]
    if len(permutations) != L:
        raise ParameterError(f"{len(permutations)} permutations for L={L} rows")
    if freqs.size == 0:
        return np.empty((0, L), dtype=np.complex128)
    if np.any((freqs < 0) | (freqs >= filt.n)):
        raise ParameterError("frequencies out of range")
    return _estimates(freqs, np.zeros(freqs.size, dtype=np.int64), rows,
                      permutations, filt, B)


def clean_loop_counts(
    frequencies: np.ndarray,
    permutations: list[Permutation],
    n: int,
    B: int,
) -> np.ndarray:
    """How many loops estimate each frequency free of cross-contamination.

    A loop is *clean* for frequency ``f`` when no other frequency in
    ``frequencies`` permutes to within one bucket width ``n/B`` of ``f``'s
    bucket center.  Inside that window a neighbor either hashes to the
    same bucket (circular distance ``<= n/(2B)``) or sits in the filter's
    transition band, where ``G_hat`` has decayed from the flat passband
    but not yet to the stop-band floor — both bias that loop's estimate
    for ``f`` far beyond the design tolerance.

    The returned counts ground a deterministic reliability predicate for
    the componentwise median (see :func:`median_reliable`): the loop
    schedule is fixed at plan time, so whether a given support is
    vulnerable is a pure function of ``(locations, permutations, n, B)``
    — no randomness at execution time.
    """
    freqs = np.asarray(frequencies, dtype=np.int64)
    L = len(permutations)
    if freqs.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any((freqs < 0) | (freqs >= n)):
        raise ParameterError("frequencies out of range")
    w = n // B
    sigmas = np.array([p.sigma for p in permutations], dtype=np.int64)
    p = (freqs[:, None] * sigmas[None, :]) % n  # (F, L)
    centers = (((p + w // 2) // w) * w) % n
    # Circular distance of every frequency's permuted position from every
    # *other* frequency's bucket center, per loop: (F_center, F_other, L).
    d = (p[None, :, :] - centers[:, None, :]) % n
    d = np.minimum(d, n - d)
    near = d < w
    idx = np.arange(freqs.size)
    near[idx, idx, :] = False  # a frequency never contaminates itself
    dirty = near.any(axis=1)  # (F, L)
    return np.asarray(L - dirty.sum(axis=1), dtype=np.int64)


def median_reliable(
    frequencies: np.ndarray,
    permutations: list[Permutation],
    n: int,
    B: int,
) -> np.ndarray:
    """Whether the median estimate of each frequency is collision-proof.

    ``True`` where a strict majority of loops are clean (see
    :func:`clean_loop_counts`): the componentwise median of ``L`` loop
    estimates then falls on or between clean samples in each component,
    so it inherits the design accuracy.  Where this returns ``False`` the
    median can be dragged by contaminated loops — the documented
    probabilistic failure mode of the paper's step 6, not an estimator
    bug — and only a loose accuracy bound holds.
    """
    counts = clean_loop_counts(frequencies, permutations, n, B)
    return counts > len(permutations) // 2


def componentwise_median(estimates: np.ndarray) -> np.ndarray:
    """Median of real and imaginary parts separately along the last axis."""
    est = np.asarray(estimates)
    if est.size == 0:
        return np.empty(est.shape[:-1], dtype=np.complex128)
    return np.median(est.real, axis=-1) + 1j * np.median(est.imag, axis=-1)


@shape_contract("frequencies:(F,), bucket_rows:(L, B):complex128 -> (F,)",
                dtype="complex128", bind={"B": "B"})
def estimate_values(
    frequencies: np.ndarray,
    bucket_rows: np.ndarray,
    permutations: list[Permutation],
    filt: FlatFilter,
    B: int,
) -> np.ndarray:
    """Final coefficient estimates for ``frequencies`` (median over loops).

    :func:`estimate_values_stack` on a stack of one signal.
    """
    return estimate_values_stack(
        [frequencies], np.asarray(bucket_rows)[None], permutations, filt, B
    )[0]


@shape_contract("hits_per_signal:*, bucket_rows_stack:(S, L, B):complex128"
                " -> *",
                bind={"S": "len(hits_per_signal)", "B": "B"},
                attrs={"filt.response": "(_,):complex128"})
def estimate_values_stack(
    hits_per_signal: list[np.ndarray],
    bucket_rows_stack: np.ndarray,
    permutations: list[Permutation],
    filt: FlatFilter,
    B: int,
) -> list[np.ndarray]:
    """Step 6 for a signal stack — one vectorized pass over all hits.

    ``bucket_rows_stack`` is the ``(S, L, B)`` frequency-domain bucket
    tensor of the pipeline.  All signals' hit frequencies are concatenated
    and estimated in one shot against the ``(S * L, B)`` row matrix (the
    per-``(hit, loop)`` formulas are elementwise, so batching cannot
    change any value); the result is split back into one value array per
    signal.
    """
    stack = np.asarray(bucket_rows_stack)
    if stack.ndim != 3 or stack.shape[2] != B:
        raise ParameterError(
            f"bucket_rows_stack must be (S, L, B), got {stack.shape}"
        )
    S, L = stack.shape[0], stack.shape[1]
    if len(hits_per_signal) != S:
        raise ParameterError(
            f"{len(hits_per_signal)} hit sets for a stack of {S} signals"
        )
    if len(permutations) != L:
        raise ParameterError(f"{len(permutations)} permutations for L={L} rows")
    freqs = np.concatenate(
        [np.asarray(h, dtype=np.int64) for h in hits_per_signal]
    )
    sizes = [np.size(h) for h in hits_per_signal]
    if freqs.size == 0:
        return [np.empty(0, dtype=np.complex128) for _ in range(S)]
    if np.any((freqs < 0) | (freqs >= filt.n)):
        raise ParameterError("frequencies out of range")
    first_row = np.repeat(np.arange(0, S * L, L, dtype=np.int64), sizes)
    values = componentwise_median(_estimates(
        freqs, first_row, stack.reshape(S * L, B), permutations, filt, B
    ))
    edges = [0, *accumulate(sizes)]
    return [values[a:b] for a, b in zip(edges, edges[1:])]
