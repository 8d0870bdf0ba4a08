"""Subsampled (bucket) FFT — paper step 3.

After folding, a single ``B``-point FFT turns the time-domain buckets into
frequency-domain buckets.  Because all ``L`` loops transform the same size
``B``, the GPU implementation batches them into one cuFFT call (shared
twiddle factors); the CPU path mirrors that with one vectorized call over a
``(L, B)`` array, routed through the one FFT seam
(:func:`repro.core.fft_backend.get_backend`), where the vendor is fixed as
cuFFT/FFTW are in the paper's builds.

The *fold-subsample identity* (tested) is what makes this legitimate:
``fft_B(fold_B(y)) == fft_n(y)[::n//B]`` for any length-``n`` ``y``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from .fft_backend import get_backend

__all__ = ["bucket_fft", "subsample_spectrum"]


@shape_contract("buckets:* -> *", dtype="complex128")
def bucket_fft(buckets: np.ndarray) -> np.ndarray:
    """FFT the buckets of one loop (1-D) or all loops batched (2-D, last axis).

    Matches the batched-cuFFT call of the paper's step 3, through
    :func:`repro.core.fft_backend.get_backend`.
    """
    b = np.asarray(buckets, dtype=np.complex128)
    if b.ndim not in (1, 2):
        raise ParameterError(f"buckets must be 1-D or 2-D, got shape {b.shape}")
    return get_backend().fft(b, axis=-1)


@shape_contract("spectrum:*, B:* -> (b,)", bind={"b": "B"})
def subsample_spectrum(spectrum: np.ndarray, B: int) -> np.ndarray:
    """Reference: take every ``n/B``-th bin of a dense length-``n`` spectrum.

    Used by tests to validate the fold-subsample identity; never on the hot
    path (it needs the dense spectrum).
    """
    spec = np.asarray(spectrum)
    n = spec.size
    if B < 1 or n % B != 0:
        raise ParameterError(f"B={B} must divide n={n}")
    return spec[:: n // B].copy()
